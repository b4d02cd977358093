"""Tests for cross-process metrics aggregation: dump/merge and capture."""

import pickle

import pytest

from repro.harness import build_vnetp
from repro.obs.context import Observability, capture_run
from repro.obs.metrics import MetricsRegistry
from repro.sim import Simulator


def _populated() -> MetricsRegistry:
    reg = MetricsRegistry()
    reg.counter("c").inc(5)
    reg.gauge("g").set(2.5)
    h = reg.histogram("h", (1.0, 10.0, 100.0))
    for x in (0.5, 5, 50, 500):
        h.observe(x)
    return reg


def test_dump_pickles_and_merges_into_empty_registry():
    dump = pickle.loads(pickle.dumps(_populated().dump()))
    merged = MetricsRegistry()
    merged.merge(dump)
    assert merged.counter("c").value == 5
    assert merged.gauge("g").value == 2.5
    h = merged.get("h")
    assert h.counts == [1, 1, 1, 1]
    assert h.count == 4
    assert h.min == 0.5 and h.max == 500


def test_merge_adds_to_existing_instruments():
    merged = _populated()
    merged.merge(_populated().dump())
    assert merged.counter("c").value == 10
    assert merged.gauge("g").value == 5.0
    h = merged.get("h")
    assert h.counts == [2, 2, 2, 2]
    assert h.sum == pytest.approx(2 * (0.5 + 5 + 50 + 500))


def test_merge_rejects_mismatched_histogram_edges():
    reg = MetricsRegistry()
    reg.histogram("h", (1.0, 2.0))
    with pytest.raises(ValueError):
        reg.merge(_populated().dump())


def test_merge_rejects_kind_conflicts():
    reg = MetricsRegistry()
    reg.gauge("c")
    with pytest.raises(ValueError):
        reg.merge(_populated().dump())
    with pytest.raises(ValueError):
        MetricsRegistry().merge({"x": {"type": "mystery"}})


def test_capture_run_collects_new_simulations():
    with capture_run() as outer:
        obs1 = Observability.of(Simulator())
        with capture_run() as inner:
            obs2 = Observability.of(Simulator())
        obs3 = Observability.of(Simulator())
    assert outer.registries == [obs1.metrics, obs3.metrics]
    assert inner.registries == [obs2.metrics]
    obs1.metrics.counter("c").inc(2)
    obs3.metrics.counter("c").inc(3)
    # Untouched timelines/hubs contribute nothing to the dump.
    assert outer.dump() == {
        "metrics": {"c": {"type": "counter", "value": 5}},
        "timelines": [],
        "health": [],
    }
    # Outside any capture, creation registers nowhere.
    with capture_run() as empty:
        pass
    assert empty.dump() == {"metrics": {}, "timelines": [], "health": []}


def test_merging_a_dump_reproduces_it():
    reg = _populated()
    reg.counter("idle")
    reg.gauge("unset")
    reg.gauge("timed").set(0, now_ns=7)
    reg.histogram("empty", (1.0,))
    merged = MetricsRegistry()
    merged.merge(reg.dump())
    assert merged.dump() == reg.dump()


def test_idle_vnetp_testbed_dumps_no_drop_counter():
    tb = build_vnetp(n_hosts=2)
    metrics = Observability.of(tb.sim).metrics
    # The drop counters exist from construction but have not moved.
    assert [name for name in metrics.names() if "drop" in name]
    assert [name for name in metrics.dump() if "drop" in name] == []
