"""Tests for cross-process metrics aggregation: dump/merge and capture."""

import math
import pickle

import pytest

from repro.obs.context import Observability, capture_run
from repro.obs.metrics import MetricsRegistry
from repro.sim import Simulator
from repro.sim.trace import SampleStats


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


def test_sample_stats_merge_matches_streaming():
    xs = [1.0, 2.0, 5.5, -3.0, 8.25, 0.5, 4.0]
    whole = SampleStats()
    whole.extend(xs)
    left, right = SampleStats(), SampleStats()
    left.extend(xs[:3])
    right.extend(xs[3:])
    left.merge(right)
    assert left.n == whole.n
    assert left.mean == pytest.approx(whole.mean)
    assert left.variance == pytest.approx(whole.variance)
    assert left.min == whole.min and left.max == whole.max
    assert left.samples == xs


def test_sample_stats_merge_empty_cases():
    empty = SampleStats()
    filled = SampleStats()
    filled.extend([1.0, 2.0])
    assert empty.merge(filled).mean == pytest.approx(1.5)
    other = SampleStats()
    assert filled.merge(other).n == 2
    both = SampleStats().merge(SampleStats())
    assert both.n == 0 and math.isnan(both.mean)


def test_sample_stats_merge_drops_reservoir_if_either_side_did():
    kept = SampleStats()
    kept.extend([1.0, 2.0])
    dropped = SampleStats(keep_samples=False)
    dropped.extend([3.0])
    assert kept.merge(dropped).samples is None
