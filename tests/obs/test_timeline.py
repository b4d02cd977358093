"""Timeline: sampling cadence, ring eviction, samplers, exports, merge."""

import json
import math

import pytest

from repro.obs.context import Observability, capture_run
from repro.obs.timeline import (
    DEFAULT_INTERVAL_NS,
    Series,
    Timeline,
    bucket_percentile,
    merge_dumps,
)
from repro.sim import Simulator


def make_timeline(interval_ns=1000, capacity=64):
    sim = Simulator()
    obs = Observability.of(sim)
    tl = Timeline(sim, obs.metrics, interval_ns=interval_ns, capacity=capacity)
    return sim, obs, tl


# -- Series ----------------------------------------------------------------

def test_series_ring_evicts_oldest():
    s = Series("s", capacity=3)
    for i in range(5):
        s.append(i * 10, float(i))
    assert len(s) == 3
    assert s.times == [20, 30, 40]
    assert s.values == [2.0, 3.0, 4.0]
    assert s.samples() == [(20, 2.0), (30, 3.0), (40, 4.0)]
    assert s.last() == (40, 4.0)


def test_series_empty_and_nan_handling():
    s = Series("s")
    assert s.last() is None
    s.append(0, math.nan)
    s.append(1, 2.5)
    assert s.finite_values() == [2.5]
    with pytest.raises(ValueError):
        Series("bad", capacity=0)


def test_series_dict_round_trip():
    s = Series("s", unit="pkt/s", capacity=7)
    s.append(5, 1.0)
    s.append(9, math.nan)
    back = Series.from_dict(s.to_dict())
    assert back.name == "s" and back.unit == "pkt/s" and back.capacity == 7
    assert back.times == s.times
    assert back.values[0] == 1.0 and math.isnan(back.values[1])


# -- bucket_percentile -----------------------------------------------------

def test_bucket_percentile_interpolates_and_handles_edges():
    edges = [10.0, 100.0, 1000.0]
    # All mass in one bucket: percentile stays inside that bucket.
    assert 10.0 <= bucket_percentile(edges, [0, 4, 0, 0], 50) <= 100.0
    # Empty window is NaN, overflow pins to the last edge.
    assert math.isnan(bucket_percentile(edges, [0, 0, 0, 0], 99))
    assert bucket_percentile(edges, [0, 0, 0, 3], 99) == 1000.0
    with pytest.raises(ValueError):
        bucket_percentile(edges, [1, 0, 0, 0], 101)


# -- sampling cadence ------------------------------------------------------

def test_start_samples_on_cadence_with_final_partial_tick():
    sim, obs, tl = make_timeline(interval_ns=1000)
    seen = tl.record("probe", lambda now: float(now))
    tl.start(until_ns=3500)
    sim.run()
    # Full windows at 1000/2000/3000 plus the horizon tick at 3500.
    assert seen.times == [1000, 2000, 3000, 3500]
    assert seen.values == [1000.0, 2000.0, 3000.0, 3500.0]


def test_double_start_raises_and_restart_after_horizon_is_allowed():
    sim, obs, tl = make_timeline(interval_ns=1000)
    tl.record("probe", lambda now: 0.0)
    tl.start(until_ns=2000)
    with pytest.raises(RuntimeError):
        tl.start(until_ns=4000)
    sim.run()
    tl.start(until_ns=4000)  # horizon reached -> driver may be respawned
    sim.run()
    assert tl.series["probe"].times == [1000, 2000, 3000, 4000]


def test_inactive_timeline_spawns_no_process():
    sim, obs, tl = make_timeline()
    assert not tl.active
    # No series registered and no start(): a drained run sees no events.
    sim.run()
    assert sim.now == 0
    tl.record("x", lambda now: 1.0)
    assert tl.active


def test_registration_is_get_or_create():
    sim, obs, tl = make_timeline()
    obs.metrics.counter("c").inc()
    a = tl.counter_rate("c", series="rate")
    b = tl.counter_rate("c", series="rate")
    assert a is b
    assert len(tl._samplers) == 1


def test_interval_must_be_positive():
    sim = Simulator()
    with pytest.raises(ValueError):
        Timeline(sim, Observability.of(sim).metrics, interval_ns=0)


# -- samplers --------------------------------------------------------------

def test_counter_rate_per_window_delta():
    sim, obs, tl = make_timeline(interval_ns=1000)
    c = obs.metrics.counter("pkts")
    rate = tl.counter_rate("pkts", series="rate", unit="pkt/s")

    def traffic():
        # Mid-window increments: 5 packets land in each sampling window.
        yield sim.timeout(500)
        for _ in range(3):
            c.inc(5)
            yield sim.timeout(1000)

    sim.process(traffic())
    tl.start(until_ns=3000)
    sim.run()
    # 5 packets per 1000 ns window = 5e6 pkt/s, every window.
    assert rate.values == [5e6, 5e6, 5e6]


def test_gauge_value_last_vs_time_weighted():
    sim, obs, tl = make_timeline(interval_ns=1000)
    g = obs.metrics.gauge("depth")
    last = tl.gauge_value("depth", series="last")
    avg = tl.gauge_value("depth", series="avg", time_avg=True)

    def writer():
        g.set(4.0, now_ns=sim.now)      # 4 for the first half...
        yield sim.timeout(500)
        g.set(0.0, now_ns=sim.now)      # ...0 for the second half.
        yield sim.timeout(500)

    sim.process(writer())
    tl.start(until_ns=1000)
    sim.run()
    assert last.values == [0.0]
    assert avg.values == [pytest.approx(2.0)]


def test_histogram_percentile_windows_are_deltas():
    sim, obs, tl = make_timeline(interval_ns=1000)
    h = obs.metrics.histogram("lat", edges=[10.0, 100.0, 1000.0])
    series = tl.histogram_percentile("lat", 50, series="p50")

    def observe():
        yield sim.timeout(500)
        for x in (5, 5, 5):
            h.observe(x)
        yield sim.timeout(1000)
        for x in (500, 500, 500):
            h.observe(x)

    sim.process(observe())
    tl.start(until_ns=3000)
    sim.run()
    # Window 1 saw only the first bucket, window 2 only the third;
    # window 3 saw nothing (NaN) — deltas, not cumulative counts.
    assert series.values[0] <= 10.0
    assert 100.0 <= series.values[1] <= 1000.0
    assert math.isnan(series.values[2])


def test_histogram_percentile_requires_histogram():
    sim, obs, tl = make_timeline()
    obs.metrics.counter("not-a-hist")
    with pytest.raises(ValueError):
        tl.histogram_percentile("not-a-hist", 99)
    with pytest.raises(ValueError):
        tl.histogram_percentile("never-registered", 99)


def test_attach_observer_runs_after_each_tick():
    sim, obs, tl = make_timeline(interval_ns=1000)
    tl.record("x", lambda now: 1.0)
    ticks = []
    tl.attach(ticks.append)
    tl.start(until_ns=2000)
    sim.run()
    assert ticks == [1000, 2000]


# -- exports ---------------------------------------------------------------

def _sampled_timeline():
    sim, obs, tl = make_timeline(interval_ns=1000)
    c = obs.metrics.counter("pkts")
    tl.counter_rate("pkts", series="rate", unit="pkt/s")
    tl.record("maybe", lambda now: math.nan if now < 2000 else 7.0)

    def traffic():
        while True:
            c.inc()
            yield sim.timeout(250)

    sim.process(traffic())
    tl.start(until_ns=2000)
    sim.run(until=2000)
    return tl


def test_to_csv_long_format_nan_empty():
    tl = _sampled_timeline()
    lines = tl.to_csv().strip().splitlines()
    assert lines[0] == "series,unit,t_ns,value"
    assert "maybe,,1000," in lines  # NaN serialises as the empty field
    assert any(line.startswith("rate,pkt/s,1000,") for line in lines)


def test_chrome_counter_events_schema_skips_nan():
    tl = _sampled_timeline()
    events = tl.chrome_counter_events()
    json.dumps(events)  # must be JSON-serialisable as-is
    assert all(e["ph"] == "C" for e in events)
    by_name = {}
    for e in events:
        by_name.setdefault(e["name"], []).append(e)
    # The NaN window of "maybe" is omitted; its 2000 ns sample survives.
    assert [e["ts"] for e in by_name["maybe"]] == [2.0]
    assert [e["ts"] for e in by_name["rate"]] == [1.0, 2.0]
    assert by_name["rate"][0]["args"]["value"] == 4e6


def test_render_mentions_every_series():
    tl = _sampled_timeline()
    out = tl.render("unit test")
    assert "unit test" in out and "rate" in out and "maybe" in out


# -- dump / merge ----------------------------------------------------------

def test_merge_dumps_concatenates_and_sorts():
    a = Series("s", unit="ns")
    a.append(30, 3.0)
    a.append(10, 1.0)
    b = Series("s", unit="ns")
    b.append(20, 2.0)
    other = Series("t")
    other.append(5, 5.0)
    merged = merge_dumps([
        {"series": {"s": a.to_dict(), "t": other.to_dict()}},
        {"series": {"s": b.to_dict()}},
    ])
    assert set(merged) == {"s", "t"}
    assert merged["s"].samples() == [(10, 1.0), (20, 2.0), (30, 3.0)]
    assert merged["s"].unit == "ns"
    assert merge_dumps([]) == {}


# -- context wiring --------------------------------------------------------

def test_observability_timeline_lazy_and_captured():
    with capture_run() as capture:
        sim = Simulator()
        obs = Observability.of(sim)
        assert capture.timelines == []   # untouched simulations contribute nothing
        tl = obs.timeline
        assert obs.timeline is tl        # cached
        assert capture.timelines == [tl]
        assert capture.dump()["timelines"] == []  # no series yet
    assert tl.interval_ns == DEFAULT_INTERVAL_NS
    obs.reset()
    assert obs.timeline is not tl    # reset drops the store
