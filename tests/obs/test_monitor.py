"""TrafficMonitor on the registry, and FlowStats rate semantics."""

from repro.obs.context import Observability
from repro.harness.testbed import build_vnetp
from repro.units import SECOND
from repro.vnet.monitor import FlowStats, TrafficMonitor


def test_flow_rate_zero_span_is_zero():
    # A flow whose whole life is one instant has no meaningful rate: the
    # old code fell back to a 1 ns span and reported bytes * 1e9 B/s.
    f = FlowStats(src="a", dst="b", packets=1, bytes=1500,
                  first_seen_ns=1000, last_seen_ns=1000)
    assert f.rate_Bps(now_ns=1000) == 0.0
    assert f.rate_Bps(now_ns=0) == 0.0          # now=0 must not inflate either


def test_flow_rate_over_observed_window():
    f = FlowStats(src="a", dst="b", packets=2, bytes=2000,
                  first_seen_ns=0, last_seen_ns=SECOND)
    assert f.rate_Bps(now_ns=SECOND) == 2000.0
    # The window extends to now when the flow has gone quiet...
    assert f.rate_Bps(now_ns=2 * SECOND) == 1000.0
    # ...but never shrinks below the last observation.
    assert f.rate_Bps(now_ns=SECOND // 2) == 2000.0


def test_monitor_top_flows_and_registry():
    tb = build_vnetp()
    mon = TrafficMonitor(tb.sim, tb.cores[0])
    mon.observe("m1", "m2", 100)
    mon.observe("m1", "m2", 100)
    mon.observe("m3", "m4", 5000)
    top = mon.top_flows(1)
    assert [(f.src, f.dst) for f in top] == [("m3", "m4")]
    assert mon.matrix()[("m1", "m2")] == 200
    assert mon.total_bytes() == 5200
    # The registry mirrors the monitor's aggregate view.
    metrics = Observability.of(tb.sim).metrics
    host = tb.hosts[0].name
    assert metrics.counter(f"vnet.monitor.{host}.packets").value == 3
    assert metrics.counter(f"vnet.monitor.{host}.bytes").value == 5200
    assert metrics.gauge(f"vnet.monitor.{host}.flows").value == 2
    assert mon.packets == 3 and mon.bytes == 5200


def test_monitor_reset_clears_flows_and_metrics():
    tb = build_vnetp()
    mon = TrafficMonitor(tb.sim, tb.cores[0])
    mon.observe("m1", "m2", 100)
    mon.reset()
    assert mon.flows == {}
    assert mon.total_bytes() == 0
    metrics = Observability.of(tb.sim).metrics
    host = tb.hosts[0].name
    assert metrics.counter(f"vnet.monitor.{host}.packets").value == 0
    assert metrics.gauge(f"vnet.monitor.{host}.flows").value == 0
    # Observation after reset starts clean.
    mon.observe("m5", "m6", 42)
    assert mon.packets == 1 and mon.bytes == 42
