"""Unit tests for the chaos injector stages on bare pipeline ports."""

import gc
import importlib
import weakref

import pytest

from repro.chaos import (
    DelayStage,
    GilbertElliottStage,
    LossStage,
    PartitionStage,
    chain_on,
)
from repro.obs.context import Observability
from repro.sim import Simulator
from repro.sim.pipeline import Port


class Frame:
    __slots__ = ("size", "src", "dst", "id")

    def __init__(self, ident=0, size=100):
        self.size = size
        self.src = "a"
        self.dst = "b"
        self.id = ident


def _port_with_sink(sim):
    got = []
    port = Port(sim, "test.port")
    port.connect(lambda f: got.append(f) or True)
    return port, got


def test_loss_stage_seeded_fraction():
    sim = Simulator()
    port, got = _port_with_sink(sim)
    stage = LossStage(sim, rate=0.2, seed=3).install(port)
    for i in range(2000):
        port.push(Frame(i))
    assert stage.counts()["dropped"] + stage.counts()["passed"] == 2000
    assert 0.15 < stage.counts()["dropped"] / 2000 < 0.25
    assert len(got) == stage.counts()["passed"]


def test_loss_stage_same_seed_same_drops():
    def run(seed):
        sim = Simulator()
        port, got = _port_with_sink(sim)
        LossStage(sim, rate=0.3, seed=seed).install(port)
        for i in range(500):
            port.push(Frame(i))
        return [f.id for f in got]

    assert run(7) == run(7)
    assert run(7) != run(8)


def test_gilbert_elliott_statistics():
    """Stationary loss ≈ p_gb/(p_gb+p_bg); mean burst length ≈ 1/p_bg."""
    sim = Simulator()
    port, got = _port_with_sink(sim)
    stage = GilbertElliottStage(sim, p_gb=0.01, p_bg=0.1, seed=5).install(port)
    n = 20000
    delivered = [bool(port.push(Frame(i))) for i in range(n)]
    loss = stage.counts()["dropped"] / n
    assert 0.05 < loss < 0.14  # stationary expectation ~0.091
    # Mean length of consecutive-drop runs ~ 1/p_bg = 10 frames.
    runs = []
    run = 0
    for ok in delivered:
        if not ok:
            run += 1
        elif run:
            runs.append(run)
            run = 0
    assert runs, "expected burst losses"
    mean_burst = sum(runs) / len(runs)
    assert 5 < mean_burst < 20
    assert stage.burst_dropped > 0


def test_partition_stage_fail_heal():
    """Installed, the stage blackholes every frame; removed, the port
    forwards again."""
    sim = Simulator()
    port, got = _port_with_sink(sim)
    assert port.push(Frame(1))
    stage = PartitionStage(sim).install(port)
    assert not port.push(Frame(2))
    stage.remove()
    assert port.push(Frame(3))
    assert stage.counts() == {"blackholed": 1}
    assert [f.id for f in got] == [1, 3]


def test_stacked_removal_is_order_safe():
    """Removing stacked injectors in either order restores the sink."""
    for removal_order in ("first-installed-first", "last-installed-first"):
        sim = Simulator()
        port, got = _port_with_sink(sim)
        original = port.sink
        a = LossStage(sim, rate=1.0, seed=0).install(port)
        b = PartitionStage(sim).install(port)
        assert chain_on(port) == [a, b]
        first, second = (a, b) if removal_order == "first-installed-first" else (b, a)
        first.remove()
        second.remove()
        assert port.sink is original
        assert chain_on(port) == []
        assert port.push(Frame(9))
        assert got[-1].id == 9


def test_inner_removal_keeps_outer_working():
    """Removing the inner injector leaves the outer one functional."""
    sim = Simulator()
    port, got = _port_with_sink(sim)
    inner = PartitionStage(sim).install(port)
    outer = LossStage(sim, rate=0.5, seed=0).install(port)
    for i in range(20):
        port.push(Frame(i))
    assert got == []                # what the loss stage passes, the partition swallows
    assert inner.counts()["blackholed"] == outer.counts()["passed"] > 0
    inner.remove()
    delivered = [bool(port.push(Frame(i))) for i in range(20, 60)]
    assert 0 < sum(delivered) < 40  # the loss stage still drops some
    assert [f.id for f in got] == [20 + i for i, ok in enumerate(delivered) if ok]
    assert outer.counts()["dropped"] + outer.counts()["passed"] == 60


def test_chaos_metrics_published_in_registry():
    sim = Simulator()
    port, _ = _port_with_sink(sim)
    stage = LossStage(sim, rate=0.5, seed=4).install(port)
    for i in range(50):
        port.push(Frame(i))
    snap = Observability.of(sim).metrics.snapshot("chaos.")
    assert f"{stage.name}.dropped" in snap
    assert f"{stage.name}.passed" in snap
    assert stage.name.startswith("chaos.loss.test.port")
    assert snap[f"{stage.name}.dropped"] == stage.counts()["dropped"]


def test_install_twice_rejected():
    sim = Simulator()
    port, _ = _port_with_sink(sim)
    stage = LossStage(sim, rate=0.1, seed=0).install(port)
    try:
        stage.install(port)
    except RuntimeError:
        pass
    else:  # pragma: no cover
        raise AssertionError("double install must raise")


def test_delay_stage_holds_every_frame_in_order():
    sim = Simulator()
    port, got = _port_with_sink(sim)
    stage = DelayStage(sim, delay_ns=5_000).install(port)
    for i in range(10):
        port.push(Frame(i))
    assert got == []                      # nothing delivered synchronously
    sim.run(until=sim.timeout(4_999))
    assert got == []                      # still inside the hold window
    sim.run(until=sim.timeout(2))
    assert [f.id for f in got] == list(range(10))   # order preserved
    assert stage.counts()["delayed"] == 10


def test_delay_stage_delivers_inflight_after_removal():
    sim = Simulator()
    port, got = _port_with_sink(sim)
    stage = DelayStage(sim, delay_ns=1_000).install(port)
    port.push(Frame(7))
    stage.remove()
    sim.run(until=sim.timeout(2_000))
    assert [f.id for f in got] == [7]     # in-flight frame still lands


def test_delay_stage_rejects_nonpositive_delay():
    sim = Simulator()
    with pytest.raises(ValueError):
        DelayStage(sim, delay_ns=0)


def test_middle_removal_keeps_chain_in_install_order():
    """Splicing the middle of three stacked injectors keeps the chain
    walkable from the port in install order."""
    sim = Simulator()
    port, got = _port_with_sink(sim)
    a = LossStage(sim, rate=0.0, seed=0).install(port)
    b = PartitionStage(sim).install(port)
    c = LossStage(sim, rate=0.0, seed=1).install(port)
    assert not port.push(Frame(2))
    b.remove()
    assert chain_on(port) == [a, c]
    assert port.push(Frame(3))
    a.remove()
    assert chain_on(port) == [c]
    c.remove()
    assert chain_on(port) == []
    assert [f.id for f in got] == [3]


def test_never_removed_injector_does_not_pin_its_testbed(monkeypatch):
    """A loss window that never closes leaves its injector installed;
    once the point returns, nothing module-level may still reach the
    injector and, through it, the testbed and its Simulator."""
    # The package re-exports the family function under the module's name.
    resilience = importlib.import_module("repro.harness.experiments.resilience")

    refs = []
    build_topo = resilience.build_topo

    def recording_build_topo(spec):
        tb = build_topo(spec)
        # The simulator owns its observability context, so the context
        # dying proves the simulator died with it.
        refs.append(weakref.ref(Observability.of(tb.sim)))
        return tb

    monkeypatch.setattr(resilience, "build_topo", recording_build_topo)
    row = resilience._loss_goodput_point(
        "loss 10%", "loss", 0.1, seed=3, duration_ns=1_000_000)
    assert row["loss_pct"] > 0
    gc.collect()
    assert len(refs) == 1 and refs[0]() is None
