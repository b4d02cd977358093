"""The indexed (src, dst) route lookup: same semantics, flat cost.

The lazy exact-dst/wildcard-dst index must be observationally identical
to the legacy linear scan — same winning entry (first-added wins ties,
exact-dst beats wildcard-dst), same charged cost (the full-scan model),
same change notifications — while the bulk ``load`` path fires exactly
one notification per batch.  The table keeps its routes in one
insertion-ordered dict, which answers both order and membership: a
differential test holds it to a plain-list model.
"""

import pickle

import pytest
from hypothesis import given, strategies as st

from repro.config import VnetCostParams
from repro.vnet.overlay import ANY_MAC, DestType, RouteEntry, validate_mac
from repro.vnet.routing import NoRouteError, RoutingTable

COSTS = VnetCostParams()


def route(src, dst, name="l0"):
    return RouteEntry(src_mac=src, dst_mac=dst, dest_type=DestType.LINK,
                      dest_name=name)


def brute_force(entries, src, dst):
    """The pre-index selection rule: linear scan, strict > on specificity."""
    best, best_spec = None, -1
    for e in entries:
        if e.matches(src, dst) and e.specificity > best_spec:
            best, best_spec = e, e.specificity
    return best


def mac(i):
    return f"52:00:00:00:{i >> 8:02x}:{i & 0xff:02x}"


_macs = st.integers(min_value=0, max_value=15).map(mac)
_mac_or_any = st.one_of(st.just(ANY_MAC), _macs)


@given(
    st.lists(st.tuples(_mac_or_any, _mac_or_any), min_size=0, max_size=40),
    _macs,
    _macs,
)
def test_lookup_matches_linear_scan(pairs, src, dst):
    table = RoutingTable(COSTS, cache_enabled=False)
    table.load([route(s, d, name=f"l{i}") for i, (s, d) in enumerate(pairs)])
    expected = brute_force(table.entries, src, dst)
    assert table.peek(src, dst) is expected
    if expected is None:
        with pytest.raises(NoRouteError):
            table.lookup(src, dst)
    else:
        entry, _cost = table.lookup(src, dst)
        assert entry is expected


def test_charged_cost_is_full_scan():
    """The index is a wall-clock optimisation only: the simulated cost
    still models the linear table walk the paper describes (Sect. 4.3)."""
    table = RoutingTable(COSTS, cache_enabled=False)
    table.load([route(ANY_MAC, mac(i)) for i in range(37)])
    _entry, cost = table.lookup(mac(0), mac(5))
    assert cost == COSTS.route_table_per_entry_ns * 37


def test_load_fires_one_notification():
    table = RoutingTable(COSTS)
    fired = []
    table.on_change(lambda: fired.append(1))
    added = table.load([route(ANY_MAC, mac(i)) for i in range(10)])
    assert added == 10
    assert len(fired) == 1
    # Per-entry adds still notify per entry.
    table.add(route(ANY_MAC, mac(99)))
    assert len(fired) == 2


def test_index_invalidated_by_mutation():
    table = RoutingTable(COSTS, cache_enabled=False)
    table.load([route(ANY_MAC, mac(1), name="a")])
    entry, _ = table.lookup(mac(0), mac(1))
    assert entry.dest_name == "a"
    # A higher-specificity entry added later must win immediately.
    table.add(route(mac(0), mac(1), name="b"))
    entry, _ = table.lookup(mac(0), mac(1))
    assert entry.dest_name == "b"
    # And removal must restore the wildcard route.
    table.remove_matching(src_mac=mac(0), dst_mac=mac(1))
    entry, _ = table.lookup(mac(0), mac(1))
    assert entry.dest_name == "a"


def test_lookup_examines_same_entries_at_any_table_size(monkeypatch):
    """Resolving a flow must not walk the table: with one route per
    destination, a cache-less lookup examines as many entries in a
    1000-route table as in a 10-route one (a scan examines all of them).
    An entry counts as examined when the lookup reads its MACs."""
    lookups = 500
    workloads = []
    for n in (10, 1000):
        macs = [mac(i) for i in range(n)]
        table = RoutingTable(COSTS, cache_enabled=False)
        table.load([route(ANY_MAC, m, name="to0") for m in macs])
        table.peek(macs[0], macs[1])  # build the lazy index up front
        pairs = [(macs[i % n], macs[(i * 7 + 1) % n]) for i in range(lookups)]
        workloads.append((table, pairs))

    examined = set()

    def counting(slot):
        def read(entry):
            examined.add(id(entry))
            return slot.__get__(entry, RouteEntry)
        return property(read)

    for name in ("src_mac", "dst_mac"):
        monkeypatch.setattr(RouteEntry, name, counting(RouteEntry.__dict__[name]))
    per_size = []
    for table, pairs in workloads:
        total = 0
        for src, dst in pairs:
            examined.clear()
            table.lookup(src, dst)
            total += len(examined)
        per_size.append(total)
    assert per_size[0] == per_size[1] > 0


def test_wildcard_dst_fallback():
    table = RoutingTable(COSTS, cache_enabled=False)
    table.load([
        route(ANY_MAC, ANY_MAC, name="default"),
        route(ANY_MAC, mac(1), name="exact"),
    ])
    assert table.lookup(mac(9), mac(1))[0].dest_name == "exact"
    assert table.lookup(mac(9), mac(2))[0].dest_name == "default"


def test_first_added_wins_ties():
    table = RoutingTable(COSTS, cache_enabled=False)
    table.load([
        route(ANY_MAC, mac(1), name="first"),
        route(ANY_MAC, mac(1), name="second"),
    ])
    assert table.lookup(mac(0), mac(1))[0].dest_name == "first"


# -- installation: the ordered dict vs. a plain-list reference model ---------

class ListTable:
    """Reference model: the table as a bare list, every check a linear scan."""

    def __init__(self, cache_enabled):
        self.cache_enabled = cache_enabled
        self.entries = []
        self.cached = set()
        self.notifications = 0

    def _changed(self):
        self.cached.clear()
        self.notifications += 1

    def add(self, entry):
        if entry in self.entries:
            raise ValueError
        self.entries.append(entry)
        self._changed()

    def load(self, batch):
        for i, entry in enumerate(batch):
            if entry in self.entries or entry in batch[:i]:
                raise ValueError
        self.entries.extend(batch)
        self._changed()

    def remove(self, entry):
        if entry not in self.entries:
            raise KeyError
        self.entries.remove(entry)
        self._changed()

    def remove_matching(self, src, dst):
        self.entries = [e for e in self.entries
                        if not ((src is None or e.src_mac == src)
                                and (dst is None or e.dst_mac == dst))]
        self._changed()

    def clear(self):
        self.entries = []
        self._changed()

    def lookup(self, src, dst):
        best = brute_force(self.entries, src, dst)
        if self.cache_enabled and (src, dst) in self.cached:
            return best, COSTS.route_cache_hit_ns
        if best is not None and self.cache_enabled:
            self.cached.add((src, dst))
        return best, COSTS.route_table_per_entry_ns * max(1, len(self.entries))


# A small space (4 MACs + wildcard, 2 link names) so duplicates are common.
_few_macs = st.integers(min_value=0, max_value=3).map(mac)
_few_mac_or_any = st.one_of(st.just(ANY_MAC), _few_macs)
_routes = st.builds(route, _few_mac_or_any, _few_mac_or_any,
                    st.sampled_from(["l0", "l1"]))
_ops = st.one_of(
    st.tuples(st.just("add"), _routes),
    st.tuples(st.just("load"), st.lists(_routes, max_size=6)),
    st.tuples(st.just("remove"), _routes),
    st.tuples(st.just("remove_matching"),
              st.one_of(st.none(), _few_mac_or_any),
              st.one_of(st.none(), _few_mac_or_any)),
    st.tuples(st.just("clear")),
    st.tuples(st.just("lookup"), _few_macs, _few_macs),
)


@given(st.lists(_ops, max_size=40), st.booleans())
def test_mutations_match_list_model(ops, cache_enabled):
    """Every mutation sequence rejects the same duplicates, keeps the same
    order, selects and charges the same as the linear-scan list."""
    table = RoutingTable(COSTS, cache_enabled=cache_enabled)
    model = ListTable(cache_enabled)
    fired = []
    table.on_change(lambda: fired.append(1))
    for op, *args in ops:
        if op == "lookup":
            src, dst = args
            expected, cost = model.lookup(src, dst)
            assert table.peek(src, dst) is expected
            if expected is None:
                with pytest.raises(NoRouteError):
                    table.lookup(src, dst)
            else:
                assert table.lookup(src, dst) == (expected, cost)
            continue
        if op == "remove_matching":
            src, dst = args
            table.remove_matching(src_mac=src, dst_mac=dst)
            model.remove_matching(src, dst)
        else:
            try:
                getattr(model, op)(*args)
            except (ValueError, KeyError) as exc:
                with pytest.raises(type(exc)):
                    getattr(table, op)(*args)
            else:
                getattr(table, op)(*args)
        assert list(table.entries) == model.entries
        assert len(fired) == model.notifications


def test_load_rejects_duplicates_without_mutating():
    table = RoutingTable(COSTS)
    table.load([route(ANY_MAC, mac(1))])
    fired = []
    table.on_change(lambda: fired.append(1))
    with pytest.raises(ValueError, match="duplicate route"):
        table.load([route(ANY_MAC, mac(2)), route(ANY_MAC, mac(1))])
    with pytest.raises(ValueError, match="duplicate route"):
        table.load([route(ANY_MAC, mac(3)), route(ANY_MAC, mac(3))])
    assert list(table.entries) == [route(ANY_MAC, mac(1))]
    assert fired == []


def test_add_is_linear_in_eq_calls(monkeypatch):
    """Installing n routes one ``add`` at a time must not compare each new
    route with every installed one (a list scan is ~n^2/2 ``__eq__``)."""
    calls = [0]
    eq = RouteEntry.__eq__

    def counting_eq(self, other):
        calls[0] += 1
        return eq(self, other)

    n = 2000
    routes = [route(mac(i % 256), f"52:00:00:01:{i >> 8:02x}:{i & 0xff:02x}")
              for i in range(n)]
    monkeypatch.setattr(RouteEntry, "__eq__", counting_eq)
    table = RoutingTable(COSTS)
    for r in routes:
        table.add(r)
    assert len(table) == n
    assert calls[0] <= 2 * n


def test_remove_is_linear_in_eq_calls(monkeypatch):
    """Removing n routes one at a time must not scan the table for each
    (a list ``remove`` is ~n^2/2 ``__eq__``)."""
    calls = [0]
    eq = RouteEntry.__eq__

    def counting_eq(self, other):
        calls[0] += 1
        return eq(self, other)

    n = 2000
    routes = [route(mac(i % 256), f"52:00:00:01:{i >> 8:02x}:{i & 0xff:02x}")
              for i in range(n)]
    table = RoutingTable(COSTS)
    table.load(routes)
    monkeypatch.setattr(RouteEntry, "__eq__", counting_eq)
    for r in reversed(routes):
        table.remove(r)
    assert len(table) == 0
    assert calls[0] <= 2 * n


def test_slotted_route_pickles_hashes_and_normalises():
    """The exec engine ships routes across processes: a slotted entry must
    round-trip through pickle and keep hashing like its equal twin."""
    # MACs are normalised and interned where they enter, not by the entry.
    entry = route(validate_mac("52:00:00:00:00:AB"), ANY_MAC, name="l7")
    assert not hasattr(entry, "__dict__")
    assert entry.src_mac == "52:00:00:00:00:ab"
    twin = route(validate_mac("52:00:00:00:00:ab"), ANY_MAC, name="l7")
    assert entry == twin and hash(entry) == hash(twin)
    assert entry.src_mac is twin.src_mac  # interned: one string per MAC
    assert len({entry, twin}) == 1
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(entry, protocol))
        assert back == entry and hash(back) == hash(entry)
    table = RoutingTable(COSTS)
    table.add(entry)
    with pytest.raises(ValueError, match="duplicate route"):
        table.add(twin)
