"""Port/PacketStage pipeline: wiring, backpressure, latency."""

from dataclasses import dataclass

import pytest

from repro.obs.span import SpanRecorder
from repro.sim import PacketStage, Port, Simulator


@dataclass
class Frame:
    src: str = "a"
    dst: str = "b"
    payload: object = None
    size: int = 100


# -- Port wiring -------------------------------------------------------------
def test_connect_is_exactly_once():
    sim = Simulator()
    port = Port(sim, "p")
    assert not port.connected
    port.connect(lambda f: None)
    assert port.connected
    with pytest.raises(RuntimeError, match="already connected"):
        port.connect(lambda f: None)


def test_rebind_swaps_and_clears():
    sim = Simulator()
    port = Port(sim, "p")
    seen = []
    port.connect(seen.append)
    wrapped = port.sink

    def tap(frame):
        seen.append("tap")
        wrapped(frame)

    port.rebind(tap)  # harness idiom: wrap ...
    port.push(Frame())
    port.rebind(wrapped)  # ... and restore
    port.push(Frame())
    assert seen[0] == "tap" and len(seen) == 3
    port.rebind(None)
    assert not port.connected


# -- push: backpressure ------------------------------------------------------
def test_push_reports_refusal():
    sim = Simulator()
    port = Port(sim, "p")
    port.connect(lambda f: False)  # sink refuses: ring full
    assert port.push(Frame()) is False
    # Unconnected port also drops (and does not raise).
    loose = Port(sim, "q")
    assert loose.push(Frame()) is False


def test_sink_returning_none_is_acceptance():
    """Plain callbacks (no return) must not be miscounted as refusals."""
    sim = Simulator()
    port = Port(sim, "p")
    port.connect(lambda f: None)
    assert port.push(Frame()) is True


# -- push_after: latency, not occupancy --------------------------------------
def test_push_after_charges_latency():
    sim = Simulator()
    port = Port(sim, "p")
    arrivals = []
    port.connect(lambda f: arrivals.append((sim.now, f)))
    f1, f2 = Frame(), Frame()
    port.push_after(f1, 500)
    port.push_after(f2, 500)  # concurrent: overlaps, does not queue behind f1
    sim.run()
    assert [(t, f) for t, f in arrivals] == [(500, f1), (500, f2)]


def test_push_after_zero_delay_preserves_fifo():
    sim = Simulator()
    port = Port(sim, "p")
    arrivals = []
    port.connect(lambda f: arrivals.append(f))
    frames = [Frame() for _ in range(3)]
    for f in frames:
        port.push_after(f, 0)
    sim.run()
    assert arrivals == frames


def test_push_after_records_span():
    sim = Simulator()
    spans = SpanRecorder(sim, enabled=True)
    port = Port(sim, "p", spans=spans, stage="link", who="cable", where="wire")
    port.connect(lambda f: None)

    def src():
        yield sim.timeout(100)
        port.push_after(Frame(src="m1", dst="m2"), 700)

    sim.process(src())
    sim.run()
    (span,) = spans.spans
    assert (span.stage, span.t0, span.t1) == ("link", 100, 800)
    assert (span.who, span.where, span.flow) == ("cable", "wire", "m1>m2")


def test_push_after_no_span_while_disabled():
    sim = Simulator()
    spans = SpanRecorder(sim, enabled=False)
    port = Port(sim, "p", spans=spans, stage="link")
    port.connect(lambda f: None)
    port.push_after(Frame(), 10)
    sim.run()
    assert spans.spans == []


# -- PacketStage composition -------------------------------------------------
class Doubler(PacketStage):
    """Test stage: forwards every frame twice through its ``out`` port."""

    def __init__(self, sim: Simulator, name: str):
        self._init_stage(sim, name)
        self.out = self.make_port("out")

    def ingress(self, frame) -> bool:
        ok = self.out.push(frame)
        return self.out.push(frame) and ok


class Sink(PacketStage):
    def __init__(self, sim: Simulator, name: str, capacity: int):
        self._init_stage(sim, name)
        self.capacity = capacity
        self.frames: list = []

    def ingress(self, frame) -> bool:
        if len(self.frames) >= self.capacity:
            return False
        self.frames.append(frame)
        return True


def test_stage_composition_and_port_registry():
    sim = Simulator()
    a = Doubler(sim, "dbl")
    b = Sink(sim, "sink", capacity=10)
    a.out.connect(b.ingress)
    assert a.ports == {"out": a.out}
    assert a.ingress(Frame())
    assert len(b.frames) == 2


def test_stage_backpressure_propagates():
    sim = Simulator()
    a = Doubler(sim, "dbl")
    b = Sink(sim, "sink", capacity=1)
    a.out.connect(b.ingress)
    assert a.ingress(Frame()) is False  # second copy refused downstream
    assert len(b.frames) == 1


def test_base_stage_ingress_is_abstract():
    sim = Simulator()
    stage = PacketStage()
    stage._init_stage(sim, "s")
    with pytest.raises(NotImplementedError):
        stage.ingress(Frame())
