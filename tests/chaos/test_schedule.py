"""FaultSchedule execution: windows install/remove at the right times."""

import pytest

from repro import units
from repro.chaos import DuplicateStage, FaultSchedule
from repro.config import NETEFFECT_10G
from repro.harness.testbed import build_native
from repro.proto.base import Blob
from repro.sim import Simulator
from repro.sim.pipeline import Port


class Frame:
    __slots__ = ("size", "src", "dst", "t")

    def __init__(self, t=0):
        self.size = 100
        self.src = "a"
        self.dst = "b"
        self.t = t


def test_loss_window_bounds_activity():
    """A rate-1.0 loss window drops exactly the frames inside it."""
    sim = Simulator()
    delivered = []
    port = Port(sim, "w.port")
    port.connect(lambda f: delivered.append(f.t) or True)
    sched = FaultSchedule(sim, name="win")
    sched.loss(port, start_ns=2_000_000, stop_ns=4_000_000, rate=1.0, seed=0)
    sched.start()

    def feed():
        while sim.now < 6_000_000:
            port.push(Frame(sim.now))
            yield sim.timeout(100_000)

    sim.process(feed())
    sim.run()
    assert delivered, "frames outside the window must pass"
    assert all(t < 2_000_000 or t >= 4_000_000 for t in delivered)
    dropped = [t for t in (n * 100_000 for n in range(60))
               if 2_000_000 <= t < 4_000_000]
    assert len(delivered) == 60 - len(dropped)
    events = [msg for _, msg in sched.log]
    assert events == ["install loss on w.port", "remove loss from w.port"]
    assert sched.log[0][0] == 2_000_000
    assert sched.log[1][0] == 4_000_000
    assert port.sink.__name__ == "<lambda>"  # original sink restored


def test_duplicate_window_doubles_only_inside_it():
    """A prob-1 duplicate window installs a DuplicateStage at its start,
    removes it at its stop, and doubles exactly the frames inside it."""
    sim = Simulator()
    delivered = []
    port = Port(sim, "w.port")
    port.connect(lambda f: delivered.append(f.t) or True)
    sched = FaultSchedule(sim, name="dup")
    window = sched.duplicate(port, start_ns=2_000_000, stop_ns=4_000_000, prob=1.0)
    sched.start()
    installed = {}

    def feed():
        while sim.now < 6_000_000:
            installed[sim.now] = isinstance(getattr(port.sink, "__self__", None),
                                            DuplicateStage)
            port.push(Frame(sim.now))
            yield sim.timeout(100_000)

    sim.process(feed())
    sim.run()
    times = [n * 100_000 for n in range(60)]
    assert delivered == [t for t in times for _ in range(2 if 2_000_000 <= t < 4_000_000 else 1)]
    assert installed == {t: 2_000_000 <= t < 4_000_000 for t in times}
    assert isinstance(window.stage, DuplicateStage)
    assert window.stage.duplicated.value == 20
    assert sched.log == [(2_000_000, "install duplicate on w.port"),
                         (4_000_000, "remove duplicate from w.port")]
    assert port.sink.__name__ == "<lambda>"  # original sink restored


def test_open_ended_window_stays_installed():
    sim = Simulator()
    port = Port(sim, "w.port")
    port.connect(lambda f: True)
    sched = FaultSchedule(sim, name="open")
    window = sched.loss(port, start_ns=0, stop_ns=None, rate=1.0, seed=0)
    sched.start()
    sim.run()  # must quiesce despite the open window
    assert window.stage.installed
    assert not port.push(Frame())


def test_flap_cycles():
    sim = Simulator()
    delivered = []
    port = Port(sim, "flap.port")
    port.connect(lambda f: delivered.append(f.t) or True)
    sched = FaultSchedule(sim, name="flap")
    sched.flap(port, start_ns=1_000_000, down_ns=500_000, up_ns=500_000, cycles=3)
    sched.start()

    def feed():
        while sim.now < 5_000_000:
            port.push(Frame(sim.now))
            yield sim.timeout(50_000)

    sim.process(feed())
    sim.run()
    # Down windows: [1.0,1.5), [2.0,2.5), [3.0,3.5) ms.
    for t in delivered:
        in_down = any(start <= t < start + 500_000
                      for start in (1_000_000, 2_000_000, 3_000_000))
        assert not in_down, f"frame at {t} crossed a down window"
    downs = [msg for _, msg in sched.log if msg.startswith("flap down")]
    ups = [msg for _, msg in sched.log if msg.startswith("flap up")]
    assert len(downs) == 3 and len(ups) == 3


def test_bad_window_rejected():
    sim = Simulator()
    port = Port(sim, "bad.port")
    port.connect(lambda f: True)
    sched = FaultSchedule(sim)
    with pytest.raises(ValueError):
        sched.loss(port, start_ns=5, stop_ns=5, rate=0.1)
    with pytest.raises(ValueError):
        sched.flap(port, start_ns=0, down_ns=1, up_ns=1, cycles=0)


def test_start_twice_rejected():
    sim = Simulator()
    sched = FaultSchedule(sim)
    sched.start()
    with pytest.raises(RuntimeError):
        sched.start()


def test_host_pause_blackholes_both_directions():
    """During a pause the host neither sends nor receives."""
    tb = build_native(nic_params=NETEFFECT_10G)
    sim = tb.sim
    a, b = tb.endpoints
    got = []

    sched = FaultSchedule(sim, name="pause")
    sched.pause(tb.hosts[1], start_ns=1_000_000, duration_ns=2_000_000)
    sched.start()

    def rx():
        sock = b.stack.udp_socket(port=9)
        while True:
            yield from sock.recv()
            got.append(sim.now)

    def tx():
        sock = a.stack.udp_socket()
        yield from sock.sendto(Blob(100), b.ip, 9)     # before: delivered
        yield sim.timeout(1_500_000)                    # inside the pause
        yield from sock.sendto(Blob(100), b.ip, 9)     # rx blackholed
        yield sim.timeout(2_000_000)                    # after resume
        yield from sock.sendto(Blob(100), b.ip, 9)     # delivered
    sim.process(rx())
    p = sim.process(tx())
    sim.run(until=p)
    sim.run()
    assert len(got) == 2
    events = [msg for _, msg in sched.log]
    assert events == ["pause host h1", "resume host h1"]


def test_schedule_events_counted(tmp_path):
    from repro.obs.context import Observability

    sim = Simulator()
    port = Port(sim, "m.port")
    port.connect(lambda f: True)
    sched = FaultSchedule(sim, name="metered")
    sched.partition(port, start_ns=10, stop_ns=20)
    sched.start()
    sim.run()
    snap = Observability.of(sim).metrics.snapshot("chaos.schedule.")
    assert snap["chaos.schedule.metered.events"] == 2


def test_loss_under_real_traffic_matches_units():
    """Schedule + ttcp: loss inside the window reduces goodput."""
    from repro.apps.ttcp import run_ttcp_udp
    from repro.harness.testbed import build_vnetp

    tb = build_vnetp(nic_params=NETEFFECT_10G)
    sched = FaultSchedule(tb.sim, name="ttcp")
    sched.loss(tb.hosts[0].nic.tx_port, start_ns=0, stop_ns=None,
               rate=0.05, seed=13)
    sched.start()
    r = run_ttcp_udp(tb.endpoints[0], tb.endpoints[1],
                     duration_ns=2 * units.MS)
    assert 0.0 < r.loss_fraction < 1.0
