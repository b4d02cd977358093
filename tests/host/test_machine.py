"""Tests for the physical host: its OS-noise stream."""

import pytest

from repro.config import (
    DEFAULT_NOISE,
    KITTEN_NOISE,
    NETEFFECT_10G,
    OsNoiseParams,
    default_host,
)
from repro.host import Host
from repro.sim import RandomStreams, Simulator


@pytest.mark.parametrize(
    "jitter",
    [DEFAULT_NOISE.jitter_max_ns, KITTEN_NOISE.jitter_max_ns, 1, 65535, 2**31, 2**32 - 1, 2**40],
)
def test_wakeup_noise_matches_scalar_draws(jitter):
    # Each sample is one scalar draw from a fresh stream of the same
    # name; 2**32 - 1 and 2**40 take the full-32-bit and 64-bit paths.
    params = default_host().with_(noise=OsNoiseParams(jitter_max_ns=jitter))
    host = Host(Simulator(), params, NETEFFECT_10G, ip="10.0.0.7", name="h7")
    ref = RandomStreams(seed=0).stream("h7.noise")
    expected = [int(ref.integers(0, jitter + 1)) for _ in range(700)]
    assert [host.wakeup_noise_ns() for _ in range(700)] == expected


def test_noise_free_host_draws_nothing():
    params = default_host().with_(noise=OsNoiseParams(jitter_max_ns=0))
    host = Host(Simulator(), params, NETEFFECT_10G, ip="10.0.0.7", name="h7")
    assert [host.wakeup_noise_ns() for _ in range(3)] == [0, 0, 0]
    # The stream is untouched: its next draw is the stream's first.
    ref = RandomStreams(seed=0).stream("h7.noise")
    assert host._noise_rng.integers(0, 1 << 30) == ref.integers(0, 1 << 30)


def test_idle_host_seeds_no_noise_stream(monkeypatch):
    """The OS-noise stream is seeded on the first draw, once: building a
    host seeds nothing, and later draws reuse the stream."""
    seeded = []
    stream = RandomStreams.stream

    def counting_stream(self, name):
        seeded.append(name)
        return stream(self, name)

    monkeypatch.setattr(RandomStreams, "stream", counting_stream)
    host = Host(Simulator(), default_host(), NETEFFECT_10G, ip="10.0.0.7", name="h7")
    assert seeded == [] and host._noise_stream is None
    host.wakeup_noise_ns()
    host.wakeup_noise_ns()
    assert seeded == ["h7.noise"]
