"""Health: event log queries, detectors, hub wiring, capture."""

import math

import pytest

from repro.obs.context import Observability, capture_run
from repro.obs.health import (
    GoodputCollapseDetector,
    HealthEvent,
    HealthHub,
    HealthLog,
    HeartbeatSilenceDetector,
    LatencySpikeDetector,
    SloMonitor,
    make_detector,
)
from repro.obs.metrics import Counter
from repro.obs.timeline import Series, Timeline
from repro.sim import Simulator


# -- log -------------------------------------------------------------------

def test_log_emit_orders_and_queries():
    log = HealthLog()
    log.emit(100, "m1", "fault")
    log.emit(200, "m2", "failover", "warning", "rerouted", 2.0)
    log.emit(300, "m1", "fault", "info")
    assert len(log) == 3
    assert [e.seq for e in log.events] == [1, 2, 3]
    assert [e.t_ns for e in log.of_kind("fault")] == [100, 300]
    assert log.of_kind("fault", monitor="m2") == []
    assert log.first("fault").t_ns == 100
    assert log.first("fault", after_ns=150).t_ns == 300
    assert log.first("missing") is None
    assert "rerouted" in log.render()
    log.reset()
    assert len(log) == 0 and log.emit(0, "m", "k").seq == 1


def test_log_rejects_unknown_severity():
    with pytest.raises(ValueError):
        HealthLog().emit(0, "m", "k", severity="catastrophic")


def test_event_dict_round_trip_defaults():
    e = HealthEvent.from_dict({"t_ns": 5, "monitor": "m", "kind": "k"})
    assert e.severity == "info" and e.message == "" and math.isnan(e.value)


# -- detectors -------------------------------------------------------------

def feed(monitor, series, samples, t0=1000, dt=1000):
    """Append samples one by one, checking the monitor after each."""
    for i, v in enumerate(samples):
        t = t0 + i * dt
        series.append(t, v)
        monitor.check(t)


def test_slo_monitor_debounces_and_pairs_events():
    log = HealthLog()
    s = Series("rate")
    mon = SloMonitor("slo", log, s, min_value=10.0, for_windows=2)
    feed(mon, s, [50.0, 5.0, math.nan, 5.0, 5.0, 50.0])
    kinds = [(e.kind, e.t_ns) for e in log.events]
    # One violation at the *second* consecutive bad finite sample (the
    # NaN window neither breaks nor extends the streak), one recovery.
    assert kinds == [("slo-violation", 4000), ("slo-violation-recovered", 6000)]
    assert log.events[0].severity == "critical"
    with pytest.raises(ValueError):
        SloMonitor("bad", log, s, for_windows=0)


def test_goodput_collapse_uses_running_peak():
    log = HealthLog()
    s = Series("goodput")
    mon = GoodputCollapseDetector("gc", log, s, collapse_frac=0.5, min_rate=10.0)
    feed(mon, s, [0.5, 100.0, 90.0, 10.0, 80.0])
    # The 0.5 sample is below frac*peak but inside the warm-up guard;
    # collapse fires at 10.0 (< 0.5 * peak 100) and recovers at 80.0.
    assert [(e.kind, e.value) for e in log.events] == [
        ("goodput-collapse", 10.0), ("goodput-collapse-recovered", 80.0)
    ]
    with pytest.raises(ValueError):
        GoodputCollapseDetector("bad", log, s, collapse_frac=1.5)


def test_latency_spike_baseline_excludes_spikes():
    log = HealthLog()
    s = Series("p99")
    mon = LatencySpikeDetector("ls", log, s, factor=3.0, warmup=3)
    feed(mon, s, [100.0, 110.0, 90.0, 1000.0, 1000.0, 120.0])
    kinds = [e.kind for e in log.events]
    assert kinds == ["latency-spike", "latency-spike-recovered"]
    # The spike samples never joined the baseline history.
    assert 1000.0 not in mon._history
    with pytest.raises(ValueError):
        LatencySpikeDetector("bad", log, s, factor=1.0)


def test_heartbeat_silence_waits_for_first_beat():
    log = HealthLog()
    c = Counter("beats")
    mon = HeartbeatSilenceDetector("hb", log, c, windows=2)
    # Silence before any beat is not an outage (link may not be up yet).
    mon.check(1000)
    mon.check(2000)
    assert len(log) == 0
    c.inc()
    mon.check(3000)      # moved
    mon.check(4000)      # still 1
    mon.check(5000)      # still 2 -> silence
    assert [(e.kind, e.t_ns) for e in log.events] == [("heartbeat-silence", 5000)]
    c.inc()
    mon.check(6000)
    assert log.events[-1].kind == "heartbeat-silence-recovered"
    with pytest.raises(ValueError):
        HeartbeatSilenceDetector("bad", log, c, windows=0)


def test_make_detector_factory():
    log = HealthLog()
    s = Series("s")
    assert isinstance(make_detector("slo", "m", log, s, min_value=1), SloMonitor)
    assert isinstance(
        make_detector("heartbeat-silence", "m", log, Counter("c")),
        HeartbeatSilenceDetector,
    )
    with pytest.raises(ValueError):
        make_detector("nope", "m", log, s)


# -- hub -------------------------------------------------------------------

def test_hub_rides_timeline_ticks():
    sim = Simulator()
    obs = Observability.of(sim)
    c = obs.metrics.counter("beats")
    tl = Timeline(sim, obs.metrics, interval_ns=1000)
    tl.counter_rate("beats", series="beat.rate")
    hub = HealthHub()
    hub.add(HeartbeatSilenceDetector("hb", hub.log, c, windows=2))
    hub.slo("rate-floor", tl.series["beat.rate"], min_value=0.0)
    assert hub.attach_to(tl) is hub

    def beats():
        # Beat for 3 ms, then go silent.
        for _ in range(6):
            c.inc()
            yield sim.timeout(500)

    sim.process(beats())
    tl.start(until_ns=8000)
    sim.run()
    silence = hub.log.first("heartbeat-silence")
    # Last beat at 2.5 ms; two still windows after the 3 ms tick -> 5 ms.
    assert silence is not None and silence.t_ns == 5000
    assert hub.log.of_kind("slo-violation") == []  # rate never negative


def test_observability_health_is_lazy_and_reset_clears_log():
    with capture_run() as capture:
        sim = Simulator()
        obs = Observability.of(sim)
        assert capture.hubs == []        # untouched hubs contribute nothing
        hub = obs.health
        assert obs.health is hub and capture.hubs == [hub]
    hub.log.emit(0, "m", "k")
    assert [e["kind"] for e in capture.dump()["health"]] == ["k"]
    obs.reset()
    assert len(obs.health.log) == 0
