"""End-to-end failover: kill a link mid-transfer, traffic resumes via
the alternate path, and routes fail back once the link heals."""

from repro.chaos import FaultSchedule
from repro.config import NETEFFECT_10G
from repro.harness.experiments.resilience import _partition_failover_point
from repro.harness.testbed import build_vnetp
from repro.obs.context import Observability
from repro.vnet.adaptation import AdaptationEngine
from repro.vnet.heartbeat import HeartbeatService
from repro.vnet.routing import DestType


def test_partition_failover_end_to_end():
    row = _partition_failover_point(
        horizon_ns=20_000_000,
        fail_at_ns=4_000_000,
        heal_at_ns=12_000_000,
        hb_interval_ns=250_000,
        failover_interval_ns=100_000,
        failback_backoff_ns=1_500_000,
        send_gap_ns=25_000,
        payload=1024,
    )
    # Detection happened, after the failure, within the phi horizon
    # (8 intervals) plus one failover sweep.
    assert 0.0 < row["detection_ms"] < 4.0
    # Traffic resumed on the detour: recovery follows detection.
    assert row["recovery_ms"] >= row["detection_ms"]
    assert row["recovery_ms"] < 5.0
    # Routes failed back after heal + backoff.
    assert 0.0 < row["failback_ms"] < 6.0
    # The monitor logged the heartbeat silence (-1 would mean never).
    assert row["telemetry_outage_ms"] > 0
    # The detour actually carried packets through the waypoint host.
    assert row["waypoint_pkts"] > 0
    # Most of the stream survived an 8 ms partition in a 20 ms run.
    assert row["delivered_pct"] > 50.0


def test_failover_rewrites_and_restores_routes():
    """Watch the routing table itself across failover and failback."""
    tb = build_vnetp(nic_params=NETEFFECT_10G, n_hosts=3)
    sim = tb.sim
    horizon = 20_000_000
    engine = AdaptationEngine(sim, tb.cores, controls=tb.controls,
                              failback_backoff_ns=1_000_000)
    for core in tb.cores:
        HeartbeatService(sim, core, interval_ns=250_000,
                         until_ns=horizon).start()
    sim.process(engine.run_failover(interval_ns=100_000, until_ns=horizon))

    sched = FaultSchedule(sim, name="cut")
    sched.partition(tb.hosts[0].vnet_bridge.link_out("to1"),
                    start_ns=3_000_000, stop_ns=10_000_000)
    sched.partition(tb.hosts[1].vnet_bridge.link_out("to0"),
                    start_ns=3_000_000, stop_ns=10_000_000)
    sched.start()

    def on_link(core, link_name):
        return core.routing.routes_to(DestType.LINK, link_name)

    checks = []

    def scenario():
        yield sim.timeout(2_000_000)
        checks.append(("before", len(on_link(tb.cores[0], "to1"))))
        yield sim.timeout(6_000_000)  # t=8ms: failure detected + rerouted
        checks.append(("during", len(on_link(tb.cores[0], "to1"))))
        checks.append(("detour", len(on_link(tb.cores[0], "to2"))))
        yield sim.timeout(10_000_000)  # t=18ms: healed + failed back
        checks.append(("after", len(on_link(tb.cores[0], "to1"))))

    done = sim.process(scenario())
    sim.run(until=done)
    sim.run()
    state = dict(checks)
    assert state["before"] >= 1
    assert state["during"] == 0          # dead link drained of routes
    assert state["detour"] >= state["before"] + 1  # moved onto waypoint link
    assert state["after"] == state["before"]       # failback restored them
    assert engine.failed_links == {}
    snap = Observability.of(sim).metrics.snapshot("vnet.adaptation.")
    assert snap["vnet.adaptation.failovers"] >= 1
    assert snap["vnet.adaptation.failbacks"] >= 1
    descriptions = [a.description for a in engine.actions]
    assert any(d.startswith("failover:") for d in descriptions)
    assert any(d.startswith("failback:") for d in descriptions)
    # The health log pins each transition to the action log, to the ns.
    log = Observability.of(sim).health.log
    assert [log.first(kind).t_ns for kind in ("failover", "failback")] == [
        next(a.when_ns for a in engine.actions
             if a.description.startswith(kind + ":"))
        for kind in ("failover", "failback")
    ]


def test_failback_waits_out_the_backoff():
    """A healed link keeps its detour until it has stayed alive for the
    full backoff window — no premature failback."""
    tb = build_vnetp(nic_params=NETEFFECT_10G, n_hosts=3)
    sim = tb.sim
    horizon = 20_000_000
    engine = AdaptationEngine(sim, tb.cores, controls=tb.controls,
                              failback_backoff_ns=4_000_000)
    for core in tb.cores:
        HeartbeatService(sim, core, interval_ns=250_000,
                         until_ns=horizon).start()
    sim.process(engine.run_failover(interval_ns=100_000, until_ns=horizon))

    sched = FaultSchedule(sim, name="backoff")
    sched.partition(tb.hosts[0].vnet_bridge.link_out("to1"),
                    start_ns=3_000_000, stop_ns=6_000_000)
    sched.partition(tb.hosts[1].vnet_bridge.link_out("to0"),
                    start_ns=3_000_000, stop_ns=6_000_000)
    sched.start()

    probes = []

    def scenario():
        # t=8 ms: healed at 6 ms, so only ~2 ms of the 4 ms backoff has
        # elapsed — the detour must still be in place.
        yield sim.timeout(8_000_000)
        probes.append(("early", (0, "to1") in engine.failed_links))
        yield sim.timeout(19_000_000 - sim.now)
        probes.append(("end", (0, "to1") in engine.failed_links))

    done = sim.process(scenario())
    sim.run(until=done)
    sim.run()
    state = dict(probes)
    assert state["early"], "failback must not fire before backoff elapses"
    assert not state["end"], "after a quiet backoff the link fails back"
