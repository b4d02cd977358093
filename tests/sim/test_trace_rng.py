"""Tests for streaming statistics and RNG streams."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.sim import RandomStreams, SampleStats


def test_sample_stats_moments():
    s = SampleStats()
    s.extend([1.0, 2.0, 3.0, 4.0])
    assert s.n == 4
    assert s.mean == pytest.approx(2.5)
    assert s.min == 1.0 and s.max == 4.0
    assert s.variance == pytest.approx(5 / 3)
    assert s.stdev == pytest.approx(math.sqrt(5 / 3))


def test_sample_stats_percentile():
    s = SampleStats()
    s.extend(range(101))
    assert s.percentile(50) == 50
    assert s.percentile(0) == 0
    assert s.percentile(100) == 100


def test_sample_stats_empty():
    s = SampleStats()
    assert math.isnan(s.mean)
    assert s.variance == 0.0


def test_sample_stats_no_reservoir():
    s = SampleStats(keep_samples=False)
    s.add(5.0)
    with pytest.raises(ValueError):
        s.percentile(50)


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=2, max_size=100))
def test_property_streaming_mean_matches_batch(xs):
    s = SampleStats()
    s.extend(xs)
    assert s.mean == pytest.approx(sum(xs) / len(xs), rel=1e-9, abs=1e-6)
    assert s.min == min(xs) and s.max == max(xs)


def test_rng_streams_deterministic():
    a = RandomStreams(seed=7).stream("latency")
    b = RandomStreams(seed=7).stream("latency")
    assert list(a.integers(0, 1000, 10)) == list(b.integers(0, 1000, 10))


def test_rng_streams_independent_by_name():
    rs = RandomStreams(seed=7)
    a = list(rs.stream("one").integers(0, 1_000_000, 8))
    b = list(rs.stream("two").integers(0, 1_000_000, 8))
    assert a != b


def test_rng_streams_differ_by_seed():
    a = list(RandomStreams(seed=1).stream("s").integers(0, 1_000_000, 8))
    b = list(RandomStreams(seed=2).stream("s").integers(0, 1_000_000, 8))
    assert a != b


def test_rng_stream_cached_per_name():
    rs = RandomStreams()
    assert rs.stream("x") is rs.stream("x")
