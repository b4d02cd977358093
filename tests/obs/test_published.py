"""Published counters: int attributes a component publishes once, named
only when read.

The registry holds one entry per component instead of one ``Counter``,
one name string and one dict slot per count; every reader (``dump``,
``snapshot``, ``names``, ``get``, ``merge``, timelines) still sees the
same names and values.
"""

import hashlib
import json

import pytest

from repro.obs.context import Observability
from repro.obs.exporters import normalize_metrics_dump
from repro.obs.metrics import Counter, MetricsRegistry
from repro.obs.timeline import Timeline
from repro.sim import Simulator
from repro.topo import TopologyCompiler, TopoSpec, generate, probe_rtt_ns, provision


class Port:
    COUNTERS = ("sent", "dropped")

    def __init__(self):
        self.sent = self.dropped = 0


class Exits:
    """Suffixes spelt with a dot and a hyphen."""

    COUNTERS = ("exits.virtio-kick",)

    def __init__(self):
        self.exits_virtio_kick = 0


def test_zero_count_is_left_out_of_dump():
    reg = MetricsRegistry()
    port = Port()
    reg.publish("hw.p0", port)
    assert reg.dump() == {}
    port.sent += 3
    assert reg.dump() == {"hw.p0.sent": {"type": "counter", "value": 3}}


def test_merge_round_trip():
    reg = MetricsRegistry()
    port, exits = Port(), Exits()
    reg.publish("hw.p0", port)
    reg.publish("palacios.h0", exits)
    port.sent, port.dropped, exits.exits_virtio_kick = 7, 1, 2
    merged = MetricsRegistry()
    merged.merge(reg.dump())
    assert merged.dump() == reg.dump()
    # Merging into a registry that publishes the same names adds to the
    # component's own attribute.
    reg.merge(reg.dump())
    assert (port.sent, port.dropped, exits.exits_virtio_kick) == (14, 2, 4)


def test_snapshot_names_and_get_under_a_prefix():
    reg = MetricsRegistry()
    port, exits = Port(), Exits()
    reg.publish("hw.p0", port)
    reg.publish("palacios.h0", exits)
    reg.gauge("hw.p0.depth").set(2.0)
    port.sent = 5
    exits.exits_virtio_kick = 1
    assert reg.snapshot("hw.") == {"hw.p0.depth": 2.0, "hw.p0.dropped": 0, "hw.p0.sent": 5}
    assert reg.names("palacios.") == ["palacios.h0.exits.virtio-kick"]
    live = reg.get("palacios.h0.exits.virtio-kick")
    assert isinstance(live, Counter) and live.value == 1
    exits.exits_virtio_kick += 1
    assert live.value == 2
    assert reg.get("hw.p0.missing") is None
    reg.reset()
    assert (port.sent, exits.exits_virtio_kick) == (0, 0)


def test_timeline_counter_rate_on_published_field():
    sim = Simulator()
    reg = Observability.of(sim).metrics
    port = Port()
    reg.publish("hw.p0", port)
    tl = Timeline(sim, reg, interval_ns=1000)
    rate = tl.counter_rate("hw.p0.sent", series="rate", unit="pkt/s")

    def traffic():
        yield 500
        for _ in range(3):
            port.sent += 5
            yield 1000

    sim.process(traffic())
    tl.start(until_ns=3000)
    sim.run()
    assert rate.values == [5e6, 5e6, 5e6]


def test_prefix_published_twice_reads_as_one_shared_counter():
    """Two components under one prefix sum, as two ``counter(name)``
    calls share one counter; publishing a component again is a no-op."""
    reg = MetricsRegistry()
    a, b = Port(), Port()
    reg.publish("hw.p0", a)
    reg.publish("hw.p0", b)
    reg.publish("hw.p0", a)
    a.sent, b.sent, b.dropped = 2, 3, 1
    assert reg.dump() == {
        "hw.p0.sent": {"type": "counter", "value": 5},
        "hw.p0.dropped": {"type": "counter", "value": 1},
    }
    assert reg.counter("hw.p0.sent").value == 5
    reg.counter("hw.p0.sent").inc(4)
    assert (a.sent, b.sent) == (6, 3)


def test_published_names_conflict_like_instruments():
    reg = MetricsRegistry()
    reg.publish("hw.p0", Port())
    with pytest.raises(ValueError, match="already registered"):
        reg.gauge("hw.p0.sent")
    reg.counter("hw.p1.sent")
    with pytest.raises(ValueError, match="already registered"):
        reg.publish("hw.p1", Port())


#: sha256 of the sorted-key JSON of the normalised metrics dump of
#: :func:`_provisioned_fat_tree_dump`, fixed when counters were registry
#: ``Counter`` objects; publishing them must not change a name or value.
FAT_TREE_16_DUMP_SHA256 = "894ce6b1731eef6f5261906073f995f28730229dd496bc427bd97fe611fdbc80"


def _provisioned_fat_tree_dump() -> dict:
    """A 16-host fat-tree, provisioned, with one cross-pod pair pinged."""
    topo = generate(TopoSpec(kind="fat-tree", n_hosts=16))
    tb = TopologyCompiler(topo).compile().build(configure=False)
    provision(tb, apply_ns=20_000, stagger_ns=50_000)
    assert topo.hosts[0].rack != topo.hosts[15].rack
    probe_rtt_ns(tb, 0, 15, count=3)
    return normalize_metrics_dump(Observability.of(tb.sim).metrics.dump())


def test_fat_tree_metrics_dump_is_unchanged():
    dump = _provisioned_fat_tree_dump()
    assert dump["vnet.core.h0.pkts_from_guest"] == {"type": "counter", "value": 3}
    text = json.dumps(dump, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == FAT_TREE_16_DUMP_SHA256


def test_built_768_host_fat_tree_holds_no_counter_object():
    topo = generate(TopoSpec(kind="fat-tree", n_hosts=768))
    tb = TopologyCompiler(topo).compile().build(configure=False)
    reg = Observability.of(tb.sim).metrics
    held = [name for name, m in reg._metrics.items() if isinstance(m, Counter)]
    assert held == []
    # Every count is still there by name: one NIC's, for instance.
    host = tb.hosts[-1].name
    assert reg.get(f"hw.nic.{host}.nic.tx_frames").value == 0
