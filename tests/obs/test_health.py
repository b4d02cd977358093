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


# -- hub -------------------------------------------------------------------

def test_hub_rides_timeline_ticks():
    sim = Simulator()
    obs = Observability.of(sim)
    c = obs.metrics.counter("beats")
    tl = Timeline(sim, obs.metrics, interval_ns=1000)
    tl.counter_rate("beats", series="beat.rate")
    hub = HealthHub()
    hub.add(HeartbeatSilenceDetector("hb", hub.log, c, windows=2))
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
