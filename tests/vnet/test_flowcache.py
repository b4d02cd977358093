"""Per-flow fast-path cache: accounting, timing neutrality, invalidation.

The cache is always part of the datapath.  Its reference is the full
chain it short-circuits, which every miss still walks:
:func:`cache_never_hits` makes every lookup miss, and the equivalence
tests demand bit-identical observables against it.

The invalidation tests are the safety half of the design: a compiled
fast-path entry must never outlive the route it was compiled from —
not across a route-table edit and not across failover/failback — while
chaos faults, which change no route, must need no flush at all.
"""

import contextlib

import pytest

from repro import units
from repro.apps.ping import run_ping
from repro.apps.ttcp import run_ttcp_udp
from repro.chaos import FaultSchedule
from repro.config import NETEFFECT_10G
from repro.harness.experiments.fairness import (
    _background_udp_point,
    _varying_loss_point,
)
from repro.harness.experiments.resilience import resilience
from repro.harness.testbed import build_vnetp
from repro.obs.context import Observability
from repro.proto.base import Blob
from repro.topo import TopoSpec
from repro.vnet import FlowCache
from repro.vnet.adaptation import AdaptationEngine
from repro.vnet.heartbeat import HeartbeatService
from repro.vnet.overlay import DestType, RouteEntry


@contextlib.contextmanager
def cache_never_hits():
    """Every flow-cache lookup misses, so every packet walks the full
    dispatch + routing chain: the reference the cache must reproduce."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(FlowCache, "lookup", lambda self, src, dst: None)
        yield


# --- accounting ----------------------------------------------------------------

def test_hit_miss_accounting():
    tb = build_vnetp(nic_params=NETEFFECT_10G)
    run_ping(tb.endpoints[0], tb.endpoints[1], count=10)
    cache = tb.cores[0].flowcache
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


# --- timing neutrality ---------------------------------------------------------

def _observables():
    tb = build_vnetp(nic_params=NETEFFECT_10G)
    p = run_ping(tb.endpoints[0], tb.endpoints[1], data_size=1024, count=20)
    tb2 = build_vnetp(nic_params=NETEFFECT_10G)
    t = run_ttcp_udp(tb2.endpoints[0], tb2.endpoints[1],
                     duration_ns=2 * units.MS)
    events = tb.sim.events_processed + tb2.sim.events_processed
    return (tuple(p.rtt_ns.samples), t.bytes_moved, t.elapsed_ns), events


def test_bit_identical_observables_cache_on_vs_off():
    """The cache only elides charged-not-performed work: same simulated
    nanoseconds, strictly fewer kernel events."""
    with_cache, events_on = _observables()
    with cache_never_hits():
        without_cache, events_off = _observables()
    assert with_cache == without_cache
    assert events_on < events_off


# --- family rows against the reference datapath ------------------------------

def _mesh(n):
    return TopoSpec(kind="mesh", n_hosts=n)


def _resilience_rows():
    return resilience(quick=True).rows


def _loss_2pct_row():
    return _varying_loss_point("loss 2%", rate=0.02, seed=2027,
                               horizon_ns=24 * units.MS,
                               warmup_ns=6 * units.MS, topo=_mesh(2))


def _udp_50pct_row():
    return _background_udp_point("UDP at 50% line rate", udp_fraction=0.5,
                                 udp_payload=1400, horizon_ns=24 * units.MS,
                                 warmup_ns=6 * units.MS, topo=_mesh(3))


@pytest.fixture(scope="module")
def reference_rows():
    """``reference_rows(run)``: ``run()`` on the all-packet datapath whose
    cache never hits, computed once per module."""
    memo = {}

    def rows_of(run):
        if run not in memo:
            with pytest.MonkeyPatch.context() as mp, cache_never_hits():
                mp.delenv("REPRO_FLUID", raising=False)
                memo[run] = run()
        return memo[run]

    return rows_of


@pytest.mark.parametrize("rows, fluid", [
    pytest.param(_resilience_rows, "0", id="resilience-quick"),
    pytest.param(_loss_2pct_row, "0", id="fairness-loss-2pct"),
    pytest.param(_udp_50pct_row, "0", id="fairness-udp-50pct"),
    pytest.param(_resilience_rows, "1", id="resilience-quick-fluid"),
])
def test_family_rows_match_reference_datapath(rows, fluid, reference_rows,
                                              monkeypatch):
    """Every result row is bit-identical to the all-packet run whose
    cache never hits.

    The resilience family crosses seeded and burst loss windows and a
    partition with failover and failback route rewrites; the fairness
    points keep the cache hitting through seeded loss and UDP cross
    traffic.  The fluid case arms the stride engine over the resilience
    family: its UDP flows are never captured and its fault windows are
    declared capture blackouts, so the rows must not move either.  The
    UDP point is exact only on the packet path, so it has no fluid case.
    """
    expected = reference_rows(rows)
    monkeypatch.setenv("REPRO_FLUID", fluid)
    assert rows() == expected


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


def _udp_under_fault(place_fault):
    """40 datagrams h0 -> h1 with a fault scheduled by ``place_fault``:
    (receive timestamps, frames the fault dropped, h0 cache, h1 cache)."""
    tb = build_vnetp(nic_params=NETEFFECT_10G)
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
    return arrivals, window.stage.counts()["blackholed"], *(c.flowcache for c in tb.cores)


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
    arrivals_on, dropped, tx_cache, rx_cache = _udp_under_fault(place_fault)
    with cache_never_hits():
        arrivals_off, dropped_off, _, _ = _udp_under_fault(place_fault)
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
    engine = AdaptationEngine(sim, tb.cores, failback_backoff_ns=1_000_000)
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
    core = tb.cores[1]
    cache = core.flowcache
    local = [e for e in cache.entries.values() if e.nic is not None]
    assert local, "inbound flow should compile to a local interface"
    # Every frame in either direction consulted the cache, and only each
    # flow's first frame missed: the inbound flow hit as well.
    assert cache.hits + cache.misses == core.pkts_from_guest.value + core.pkts_to_guest.value
    assert cache.misses == cache.installs == len(cache.entries) == 2


def test_rx_path_equivalence_cache_on_vs_off():
    """One-way UDP blast: the receiver core does pure rx work, so this
    isolates the rx dispatcher's cached path.  Same goodput and elapsed
    time, strictly fewer kernel events."""
    def run():
        tb = build_vnetp(nic_params=NETEFFECT_10G)
        t = run_ttcp_udp(tb.endpoints[0], tb.endpoints[1],
                         duration_ns=2 * units.MS)
        rx_hits = tb.cores[1].flowcache.hits
        return (t.bytes_moved, t.elapsed_ns), tb.sim.events_processed, rx_hits

    obs_on, events_on, rx_hits = run()
    with cache_never_hits():
        obs_off, events_off, _ = run()
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
