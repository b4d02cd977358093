"""FaultSchedule execution: windows install/remove at the right times."""

import pytest

from repro import units
from repro.chaos import FaultSchedule
from repro.config import NETEFFECT_10G
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


def test_bad_window_rejected():
    sim = Simulator()
    port = Port(sim, "bad.port")
    port.connect(lambda f: True)
    sched = FaultSchedule(sim)
    with pytest.raises(ValueError):
        sched.loss(port, start_ns=5, stop_ns=5, rate=0.1)


def test_start_twice_rejected():
    sim = Simulator()
    sched = FaultSchedule(sim)
    sched.start()
    with pytest.raises(RuntimeError):
        sched.start()


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
