"""Chaos stages on a physical NIC's transmit port, end to end.

The stages' own behaviour on bare ports (seeded loss fraction,
blackholing, order-safe removal) is covered in tests/chaos/test_stages.py.
"""

import pytest

from repro import units
from repro.apps.ttcp import run_ttcp_tcp
from repro.chaos import FaultSchedule, LossStage
from repro.config import NETEFFECT_10G
from repro.harness.testbed import build_native, build_vnetp


def test_lossy_medium_rejects_bad_rate():
    tb = build_native(nic_params=NETEFFECT_10G)
    with pytest.raises(ValueError):
        LossStage(tb.sim, rate=1.5)


def test_tcp_survives_loss_through_the_overlay():
    """VNET/P carries TCP over a lossy physical network: the guest's TCP
    recovers transparently."""
    tb = build_vnetp(nic_params=NETEFFECT_10G)
    LossStage(tb.sim, rate=0.005, seed=11).install(tb.hosts[0].nic.tx_port)
    r = run_ttcp_tcp(tb.endpoints[0], tb.endpoints[1], total_bytes=3 * units.MB)
    assert r.bytes_moved == 3 * units.MB


def test_tcp_rides_out_a_partition():
    tb = build_vnetp(nic_params=NETEFFECT_10G)
    sim = tb.sim
    sched = FaultSchedule(sim)
    # A 3 ms outage on the sender's NIC.
    window = sched.partition(tb.hosts[0].nic.tx_port,
                             start_ns=500_000, stop_ns=3_500_000)
    a, b = tb.endpoints
    done = {}

    def server():
        listener = b.stack.tcp_listen(5001)
        conn = yield from listener.accept()
        done["got"] = yield from conn.drain()

    def client():
        conn = yield from a.stack.tcp_connect(b.ip, 5001)
        yield from conn.send(2 * units.MB)
        yield from conn.close()

    sched.start()
    sim.process(server())
    sim.process(client())
    sim.run()
    assert window.stage.blackholed > 0
    assert done["got"] == 2 * units.MB
