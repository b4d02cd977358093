"""Tests for traffic monitoring, the adaptation engine, and VM migration."""

import pytest

from repro import units
from repro.apps.ping import run_ping
from repro.config import NETEFFECT_10G
from repro.harness.testbed import build_vnetp
from repro.proto.base import Blob
from repro.vnet.adaptation import AdaptationEngine
from repro.vnet.migration import migrate_vm
from repro.vnet.monitor import TrafficMonitor
from repro.vnet.node import OverlayMap, WalkEnd
from repro.vnet.overlay import DestType, RouteEntry
from repro.vnet.validation import validate_overlay


# --- monitor -------------------------------------------------------------------

def test_monitor_observes_flows():
    tb = build_vnetp(nic_params=NETEFFECT_10G)
    mon = TrafficMonitor(tb.sim, tb.cores[0])
    a, b = tb.endpoints
    run_ping(a, b, count=5)
    mac_a = a.vm.virtio_nics[0].mac
    mac_b = b.vm.virtio_nics[0].mac
    assert (mac_a, mac_b) in mon.flows
    flow = mon.flows[(mac_a, mac_b)]
    assert flow.packets == 5
    assert flow.bytes > 0
    assert mon.total_bytes() == flow.bytes


def test_monitor_top_flows_ordering():
    tb = build_vnetp(n_hosts=3, nic_params=NETEFFECT_10G)
    sim = tb.sim
    mon = TrafficMonitor(sim, tb.cores[0])
    a, b, c = tb.endpoints

    def tx(dst, size, n):
        sock = a.stack.udp_socket()
        for _ in range(n):
            yield from sock.sendto(Blob(size), dst.ip, 9)

    b.stack.udp_socket(port=9)
    c.stack.udp_socket(port=9)
    p1 = sim.process(tx(b, 8000, 20))
    p2 = sim.process(tx(c, 100, 3))
    sim.run(until=sim.all_of([p1, p2]))
    sim.run()
    top = mon.top_flows(1)
    assert top[0].dst == b.vm.virtio_nics[0].mac


# --- adaptation engine ------------------------------------------------------------

def waypoint_overlay():
    """3-host overlay where A reaches B only via waypoint C."""
    tb = build_vnetp(n_hosts=3, nic_params=NETEFFECT_10G)
    a, b, c = tb.endpoints
    mac_b = b.vm.virtio_nics[0].mac
    core_a = tb.cores[0]
    core_a.routing.remove_matching(dst_mac=mac_b)
    core_a.add_route(RouteEntry("any", mac_b, DestType.LINK, "to2"))
    return tb


def test_adaptation_installs_direct_route():
    tb = waypoint_overlay()
    engine = AdaptationEngine(tb.sim, tb.cores, min_flow_bytes=100)
    a, b, _ = tb.endpoints
    before = run_ping(a, b, count=10)
    changes = engine.adapt()
    assert changes >= 1
    assert any("routed" in act.description for act in engine.actions)
    after = run_ping(a, b, count=10)
    assert after.avg_rtt_us < before.avg_rtt_us * 0.8
    # The route now uses a link straight to b's host.
    mac_b = b.vm.virtio_nics[0].mac
    entry, _ = tb.cores[0].routing.lookup("00:00:00:00:00:00", mac_b)
    link = tb.cores[0].links[entry.dest_name]
    assert link.dst_ip == tb.hosts[1].ip


def test_adaptation_replaces_source_keyed_waypoint_route():
    """A route keyed on the flow's own source MAC, not the any-source
    route, decides where the flow goes, so adaptation must replace it."""
    tb = build_vnetp(n_hosts=3, nic_params=NETEFFECT_10G)
    engine = AdaptationEngine(tb.sim, tb.cores, min_flow_bytes=100)
    a, b, _ = tb.endpoints
    mac_a = a.vm.virtio_nics[0].mac
    mac_b = b.vm.virtio_nics[0].mac
    tb.cores[0].add_route(RouteEntry(mac_a, mac_b, DestType.LINK, "to2"))

    def hosts():
        walk = OverlayMap(tb.cores).walk(mac_a, mac_b)
        assert walk.end is WalkEnd.DELIVERED
        return [node.host.name for node in walk.nodes]

    assert hosts() == [h.name for h in (tb.hosts[0], tb.hosts[2], tb.hosts[1])]
    run_ping(a, b, count=10)
    assert engine.adapt() >= 1
    assert hosts() == [tb.hosts[0].name, tb.hosts[1].name]
    assert engine.adapt() == 0


def test_adaptation_ignores_small_flows():
    tb = waypoint_overlay()
    engine = AdaptationEngine(tb.sim, tb.cores, min_flow_bytes=10**9)
    a, b, _ = tb.endpoints
    run_ping(a, b, count=3)
    assert engine.adapt() == 0


def test_adaptation_is_idempotent():
    tb = waypoint_overlay()
    engine = AdaptationEngine(tb.sim, tb.cores, min_flow_bytes=100)
    a, b, _ = tb.endpoints
    run_ping(a, b, count=10)
    engine.adapt()
    assert engine.adapt() == 0  # second pass finds nothing to change


def test_control_plane_queries_leave_datapath_lookups_untouched():
    """Adaptation and validation read routes with ``peek``: they count
    no datapath lookup and leave no probe key in the hash cache."""
    tb = waypoint_overlay()
    engine = AdaptationEngine(tb.sim, tb.cores, min_flow_bytes=100)
    a, b, _ = tb.endpoints
    run_ping(a, b, count=10)
    engine.adapt()
    run_ping(a, b, count=3)

    def lookup_state():
        return [(c.routing.lookups, c.routing.cache_hits, dict(c.routing._cache))
                for c in tb.cores]

    before = lookup_state()
    assert engine.adapt() == 0
    assert validate_overlay(tb.cores).ok
    assert lookup_state() == before


# --- migration ----------------------------------------------------------------------

def test_migration_preserves_connectivity():
    tb = build_vnetp(n_hosts=3, nic_params=NETEFFECT_10G)
    sim = tb.sim
    a, b, c = tb.endpoints
    before = run_ping(a, b, count=5)

    # Migrate b's VM from host 1 to host 2.
    result_holder = {}

    def do_migration():
        result = yield from migrate_vm(
            sim, tb.cores, b.vm, b.vm.virtio_nics[0], src_idx=1, dst_idx=2
        )
        result_holder["r"] = result

    p = sim.process(do_migration())
    sim.run(until=p)
    r = result_holder["r"]
    assert r.blackout_ns > 0
    assert r.finished_ns > r.started_ns

    # Same guest IP/MAC, new physical location, still reachable.
    after = run_ping(a, b, count=5)
    assert after.rtt_ns.n == 5
    mac_b = b.vm.virtio_nics[0].mac
    assert mac_b in tb.cores[2].if_by_mac
    assert mac_b not in tb.cores[1].if_by_mac


def test_migration_traffic_during_blackout_is_dropped_not_crashed():
    tb = build_vnetp(n_hosts=3, nic_params=NETEFFECT_10G)
    sim = tb.sim
    a, b, _ = tb.endpoints

    def do_migration():
        # 50 GB/s migration link: ~20 ms pre-copy + ~1.7 ms blackout.
        yield from migrate_vm(
            sim, tb.cores, b.vm, b.vm.virtio_nics[0], src_idx=1, dst_idx=2,
            migration_bw_Bps=50e9,
        )

    def blaster():
        sock = a.stack.udp_socket()
        for _ in range(600):  # 30 ms of traffic: spans the whole migration
            yield from sock.sendto(Blob(1000), b.ip, 9)
            yield sim.timeout(50_000)

    b.stack.udp_socket(port=9)
    mig = sim.process(do_migration())
    sim.process(blaster())
    sim.run(until=mig)
    sim.run()
    # Some packets hit the blackout and were dropped by no-route (at the
    # old host, whose core no longer knows the MAC).
    assert sum(c.dropped_no_route.value for c in tb.cores) > 0
    # But traffic after the migration flowed to the new location.
    assert tb.cores[2].pkts_to_guest.value > 0


def test_migration_tcp_connection_survives():
    """A TCP transfer spanning the migration completes (retransmission
    covers the blackout)."""
    tb = build_vnetp(n_hosts=3, nic_params=NETEFFECT_10G)
    sim = tb.sim
    a, b, _ = tb.endpoints
    done = {}

    def server():
        listener = b.stack.tcp_listen(5001)
        conn = yield from listener.accept()
        done["got"] = yield from conn.drain()

    def client():
        conn = yield from a.stack.tcp_connect(b.ip, 5001)
        yield from conn.send(10 * units.MB)   # ~11 ms at VNET/P-10G rate
        yield from conn.close()
        done["conn"] = conn

    def migration():
        yield sim.timeout(100_000)
        # ~5 ms pre-copy + ~0.4 ms blackout: lands mid-transfer.
        yield from migrate_vm(
            sim, tb.cores, b.vm, b.vm.virtio_nics[0], src_idx=1, dst_idx=2,
            migration_bw_Bps=200e9,
        )

    sim.process(server())
    sim.process(client())
    sim.process(migration())
    sim.run()
    assert done["got"] == 10 * units.MB


def test_migration_validates_arguments():
    tb = build_vnetp(n_hosts=2, nic_params=NETEFFECT_10G)
    sim = tb.sim
    b = tb.endpoints[1]

    def bad_same():
        yield from migrate_vm(sim, tb.cores, b.vm, b.vm.virtio_nics[0], 1, 1)

    p = sim.process(bad_same())
    with pytest.raises(ValueError, match="same"):
        sim.run(until=p)
