"""Metrics registry: instruments, bucket edges, name/type conflicts."""

import math

import pytest

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry


def test_counter_monotonic():
    c = Counter("x")
    c.inc()
    c.inc(4)
    assert c.value == 5
    with pytest.raises(ValueError):
        c.inc(-1)
    c.reset()
    assert c.value == 0


def test_gauge_moves_both_ways():
    g = Gauge("g")
    g.set(3)
    g.inc()
    g.inc(-2)
    assert g.value == 2


def test_histogram_bucket_edges_inclusive_upper():
    h = Histogram("h", edges=[10, 100, 1000])
    # x <= edge lands in that bucket: 10 goes in the first bucket, 10.5 in
    # the second, 1001 in the overflow bucket.
    for x in (1, 10, 10.5, 100, 1000, 1001):
        h.observe(x)
    assert h.counts == [2, 2, 1, 1]
    assert h.count == 6
    assert h.min == 1 and h.max == 1001
    assert h.sum == pytest.approx(1 + 10 + 10.5 + 100 + 1000 + 1001)
    assert h.mean == pytest.approx(h.sum / 6)


def test_histogram_percentile_and_reset():
    h = Histogram("h", edges=[10, 100])
    for x in (5, 50, 500):
        h.observe(x)
    # Median falls in the (10, 100] bucket; interpolation stays inside it.
    assert 10 <= h.percentile(50) <= 100
    assert h.percentile(100) == 500
    with pytest.raises(ValueError):
        h.percentile(101)
    h.reset()
    assert h.count == 0 and h.counts == [0, 0, 0]
    assert math.isnan(h.percentile(50))


def test_histogram_rejects_bad_edges():
    with pytest.raises(ValueError):
        Histogram("h", edges=[])
    with pytest.raises(ValueError):
        Histogram("h", edges=[10, 10])
    with pytest.raises(ValueError):
        Histogram("h", edges=[100, 10])


def test_registry_get_or_create_and_conflicts():
    reg = MetricsRegistry()
    c = reg.counter("vnet.core.h0.pkts")
    assert reg.counter("vnet.core.h0.pkts") is c
    with pytest.raises(ValueError):
        reg.gauge("vnet.core.h0.pkts")
    h = reg.histogram("lat", edges=[1, 2])
    assert reg.histogram("lat", edges=[1, 2]) is h
    with pytest.raises(ValueError):
        reg.histogram("lat", edges=[1, 2, 3])


def test_registry_names_snapshot_reset():
    reg = MetricsRegistry()
    reg.counter("a.x").inc(2)
    reg.gauge("a.y").set(1.5)
    reg.histogram("b.h", edges=[10]).observe(3)
    assert reg.names("a.") == ["a.x", "a.y"]
    snap = reg.snapshot("a.")
    assert snap == {"a.x": 2, "a.y": 1.5}
    hsnap = reg.snapshot("b.")["b.h"]
    assert hsnap["count"] == 1 and hsnap["counts"] == [1, 0]
    reg.reset()
    assert reg.snapshot("a.") == {"a.x": 0, "a.y": 0.0}
    assert reg.get("missing") is None


# -- the dump publishes only what moved -----------------------------------

def test_fresh_registry_dumps_nothing():
    reg = MetricsRegistry()
    reg.counter("c")
    reg.gauge("g")
    reg.histogram("h", edges=[1])
    assert reg.dump() == {}


def test_counter_bumped_once_is_published():
    reg = MetricsRegistry()
    reg.counter("c").inc()
    assert reg.dump() == {"c": {"type": "counter", "value": 1}}


def test_timestamped_gauge_back_at_zero_stays_published():
    reg = MetricsRegistry()
    g = reg.gauge("g")
    g.set(4, now_ns=10)
    g.set(0, now_ns=30)
    assert reg.dump() == {"g": {
        "type": "gauge", "value": 0,
        "first_set_ns": 10, "last_set_ns": 30, "weighted_ns": 80,
    }}


def test_untimestamped_zero_gauge_and_empty_histogram_are_omitted():
    reg = MetricsRegistry()
    g = reg.gauge("g")
    g.set(5)
    g.set(0)
    reg.histogram("h", edges=[1, 2])
    reg.gauge("moved").set(-1.5)
    assert reg.dump() == {"moved": {"type": "gauge", "value": -1.5}}
