"""Per-flow fast-path cache: accounting, timing neutrality, invalidation.

The invalidation tests are the safety half of the design: a compiled
fast-path entry must never outlive the route it was compiled from —
not across a route-table edit and not across failover/failback — while
chaos faults, which change no route, must need no flush at all.
"""

import dataclasses

import pytest

from repro import units
from repro.apps.ping import run_ping
from repro.apps.ttcp import run_ttcp_udp
from repro.chaos import FaultSchedule
from repro.config import NETEFFECT_10G, VnetTuning
from repro.harness.testbed import build_vnetp
from repro.obs.context import Observability
from repro.proto.base import Blob
from repro.vnet.adaptation import AdaptationEngine
from repro.vnet.heartbeat import HeartbeatService
from repro.vnet.overlay import DestType, RouteEntry


def _tuning(**kw):
    return dataclasses.replace(VnetTuning(), **kw)


# --- accounting ----------------------------------------------------------------

def test_hit_miss_accounting():
    tb = build_vnetp(nic_params=NETEFFECT_10G)
    run_ping(tb.endpoints[0], tb.endpoints[1], count=10)
    cache = tb.cores[0].flowcache
    assert cache is not None
    # First packet of each flow walks the full chain, the rest hit.
    assert cache.misses == cache.installs
    assert cache.hits > 0
    assert 0.5 < cache.hit_rate <= 1.0
    assert len(cache) == cache.installs
    stats = cache.stats()
    assert stats["hits"] == cache.hits
    assert stats["invalidated_entries"] == 0
    # Counters live in the shared registry under vnet.flowcache.<host>.
    snap = Observability.of(tb.sim).metrics.snapshot("vnet.flowcache.h0.")
    assert snap["vnet.flowcache.h0.hits"] == cache.hits
    assert snap["vnet.flowcache.h0.misses"] == cache.misses


def test_flow_cache_can_be_disabled():
    tb = build_vnetp(nic_params=NETEFFECT_10G, tuning=_tuning(flow_cache=False))
    assert tb.cores[0].flowcache is None
    run_ping(tb.endpoints[0], tb.endpoints[1], count=3)  # datapath intact


def test_env_override_disables_default(monkeypatch):
    monkeypatch.setenv("REPRO_FLOW_CACHE", "0")
    assert VnetTuning().flow_cache is False
    monkeypatch.delenv("REPRO_FLOW_CACHE")
    assert VnetTuning().flow_cache is True


# --- timing neutrality ---------------------------------------------------------

def _observables(flow_cache):
    tuning = _tuning(flow_cache=flow_cache)
    tb = build_vnetp(nic_params=NETEFFECT_10G, tuning=tuning)
    p = run_ping(tb.endpoints[0], tb.endpoints[1], data_size=1024, count=20)
    tb2 = build_vnetp(nic_params=NETEFFECT_10G, tuning=tuning)
    t = run_ttcp_udp(tb2.endpoints[0], tb2.endpoints[1],
                     duration_ns=2 * units.MS)
    events = tb.sim.events_processed + tb2.sim.events_processed
    return (tuple(p.rtt_ns.samples), t.bytes_moved, t.elapsed_ns), events


def test_bit_identical_observables_cache_on_vs_off():
    """The cache only elides charged-not-performed work: same simulated
    nanoseconds, strictly fewer kernel events."""
    with_cache, events_on = _observables(True)
    without_cache, events_off = _observables(False)
    assert with_cache == without_cache
    assert events_on < events_off


# --- invalidation --------------------------------------------------------------

def test_route_change_invalidates():
    tb = build_vnetp(nic_params=NETEFFECT_10G)
    a, b = tb.endpoints
    run_ping(a, b, count=5)
    cache = tb.cores[0].flowcache
    assert len(cache) > 0
    installs_before = cache.installs
    tb.cores[0].add_route(
        RouteEntry("any", "52:00:00:00:00:99", DestType.LINK, "to1")
    )
    assert len(cache) == 0
    assert cache.invalidated_entries > 0
    # Traffic recompiles the flow and keeps working.
    run_ping(a, b, count=3)
    assert cache.installs > installs_before


def _udp_under_fault(flow_cache, place_fault):
    """40 datagrams h0 -> h1 with a fault scheduled by ``place_fault``:
    (receive timestamps, frames the fault dropped, h0 cache, h1 cache)."""
    tb = build_vnetp(nic_params=NETEFFECT_10G,
                     tuning=_tuning(flow_cache=flow_cache))
    sim = tb.sim
    sched = FaultSchedule(sim, name="nofaultflush")
    window = place_fault(tb, sched)
    sched.start()
    a, b = tb.endpoints
    rx_sock = b.stack.udp_socket(port=9)
    arrivals = []

    def receiver():
        while True:
            yield from rx_sock.recv()
            arrivals.append(sim.now)

    def traffic():
        sock = a.stack.udp_socket()
        for _ in range(40):
            yield from sock.sendto(Blob(512), b.ip, 9)
            yield sim.timeout(100_000)

    sim.process(receiver())
    done = sim.process(traffic())
    sim.run(until=done)
    sim.run()
    return arrivals, window.stage.blackholed, *(c.flowcache for c in tb.cores)


@pytest.mark.parametrize("place_fault", [
    pytest.param(lambda tb, sched: sched.flap(
        tb.hosts[0].vnet_bridge.link_out("to1"), start_ns=1_000_000,
        down_ns=150_000, up_ns=250_000, cycles=3), id="link-flap"),
    pytest.param(lambda tb, sched: sched.partition(
        tb.hosts[1].nic.rx_port, start_ns=1_000_000, stop_ns=1_500_000),
        id="nic-partition"),
])
def test_faults_need_no_flush(place_fault):
    """A fault changes no route, and cached packets still cross the
    faulted port: the cache keeps hitting through it, flushes nothing,
    and every datagram arrives exactly when it does with the cache off."""
    arrivals_on, dropped, tx_cache, rx_cache = _udp_under_fault(True, place_fault)
    arrivals_off, dropped_off, _, _ = _udp_under_fault(False, place_fault)
    assert arrivals_on == arrivals_off
    assert dropped == dropped_off > 0
    assert len(arrivals_on) < 40
    for cache in (tx_cache, rx_cache):
        assert cache.hits > 0
        assert cache.misses == cache.installs
        assert cache.invalidated_entries == 0


def test_failover_never_serves_stale_route():
    """Partition the direct link mid-stream: once the engine reroutes,
    no cached entry on the source core may still ride the dead link —
    and after failback the direct path recompiles."""
    tb = build_vnetp(nic_params=NETEFFECT_10G, n_hosts=3)
    sim = tb.sim
    horizon = 20_000_000
    engine = AdaptationEngine(sim, tb.cores, controls=tb.controls,
                              failback_backoff_ns=1_000_000)
    for core in tb.cores:
        HeartbeatService(sim, core, interval_ns=250_000,
                         until_ns=horizon).start()
    sim.process(engine.run_failover(interval_ns=100_000, until_ns=horizon))

    sched = FaultSchedule(sim, name="cutcache")
    sched.partition(tb.hosts[0].vnet_bridge.link_out("to1"),
                    start_ns=3_000_000, stop_ns=10_000_000)
    sched.partition(tb.hosts[1].vnet_bridge.link_out("to0"),
                    start_ns=3_000_000, stop_ns=10_000_000)
    sched.start()

    a, b, _ = tb.endpoints
    b.stack.udp_socket(port=9)

    def traffic():
        sock = a.stack.udp_socket()
        while sim.now < horizon - 1_000_000:
            yield from sock.sendto(Blob(1024), b.ip, 9)
            yield sim.timeout(25_000)

    sim.process(traffic())
    cache = tb.cores[0].flowcache

    def cached_links():
        return {e.link.name for e in cache.entries.values()
                if e.link is not None}

    probes = {}

    def scenario():
        yield sim.timeout(2_000_000)
        probes["before"] = cached_links()
        yield sim.timeout(6_000_000)   # t=8 ms: detected + rerouted
        probes["during"] = cached_links()
        probes["failed_over"] = (0, "to1") in engine.failed_links
        yield sim.timeout(10_000_000)  # t=18 ms: healed + failed back
        probes["after"] = cached_links()

    done = sim.process(scenario())
    sim.run(until=done)
    sim.run()

    assert "to1" in probes["before"]          # direct path compiled
    assert probes["failed_over"]
    assert "to1" not in probes["during"]      # never serving the dead link
    assert "to2" in probes["during"]          # detour compiled instead
    assert "to1" in probes["after"]           # failback recompiled direct
    assert cache.invalidated_entries >= 2     # failover + failback flushes


# --- rx-side fast path ---------------------------------------------------------

def test_rx_dispatcher_hits_compiled_path():
    """Frames arriving *from* the overlay consult the same cache before
    paying dispatch: the receiver core's inbound flow (remote guest ->
    local guest) compiles to direct interface delivery and hits."""
    tb = build_vnetp(nic_params=NETEFFECT_10G)
    run_ping(tb.endpoints[0], tb.endpoints[1], count=10)
    cache = tb.cores[1].flowcache
    assert cache.hits > 0
    assert cache.misses == cache.installs
    local = [e for e in cache.entries.values() if e.nic is not None]
    assert local, "inbound flow should compile to a local interface"
    assert all(e.hits > 0 for e in local)


def test_rx_path_equivalence_cache_on_vs_off():
    """One-way UDP blast: the receiver core does pure rx work, so this
    isolates the rx dispatcher's cached path.  Same goodput and elapsed
    time, strictly fewer kernel events."""
    def run(flag):
        tb = build_vnetp(nic_params=NETEFFECT_10G,
                         tuning=_tuning(flow_cache=flag))
        t = run_ttcp_udp(tb.endpoints[0], tb.endpoints[1],
                         duration_ns=2 * units.MS)
        cache = tb.cores[1].flowcache
        rx_hits = cache.hits if cache is not None else 0
        return (t.bytes_moved, t.elapsed_ns), tb.sim.events_processed, rx_hits

    obs_on, events_on, rx_hits = run(True)
    obs_off, events_off, _ = run(False)
    assert obs_on == obs_off
    assert events_on < events_off
    assert rx_hits > 0


# --- timeline series -----------------------------------------------------------

def test_hit_rate_series_on_timeline():
    tb = build_vnetp(nic_params=NETEFFECT_10G)
    obs = Observability.of(tb.sim)
    timeline = obs.timeline
    timeline.interval_ns = 100_000
    series = tb.cores[0].flowcache.register_hit_rate(timeline)
    timeline.start(until_ns=2 * units.MS)
    run_ttcp_udp(tb.endpoints[0], tb.endpoints[1], duration_ns=2 * units.MS)
    assert series.name == "vnet.flowcache.h0.hit_rate"
    values = [v for v in series.values if v == v]  # drop idle-window NaNs
    assert values, "stream should produce at least one sampled window"
    assert max(values) > 0.9
